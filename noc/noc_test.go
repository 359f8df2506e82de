package noc

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

func TestOptionValidationErrors(t *testing.T) {
	cases := []struct {
		name   string
		fabric Fabric
		frag   string
	}{
		{"negative lanes", CircuitSwitched(WithLanes(-2)), "lane"},
		{"zero lane width", CircuitSwitched(WithLaneWidth(-1)), "lane"},
		{"non-Fig6 lane width", CircuitSwitched(WithLaneWidth(8)), "Fig. 6"},
		{"zero VCs", PacketSwitched(WithVirtualChannels(-1)), "VC"},
		{"negative buffer depth", PacketSwitched(WithBufferDepth(-4)), "depth"},
		{"negative slots", AetherealTDM(WithSlots(-1)), "slot"},
		{"negative BE depth", AetherealTDM(WithBEDepth(-1)), "BE depth"},
		{"bad corner", CircuitSwitched(WithLibraryCorner("ulp")), "corner"},
		{"bad latency words", PacketSwitched(WithLatencyWords(-7)), "latency"},
	}
	for _, c := range cases {
		err := c.fabric.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted an invalid option", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.frag) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.frag)
		}
		// Run must refuse too, before simulating anything.
		if _, err := c.fabric.Run(Scenario{Name: "x"}); err == nil {
			t.Errorf("%s: Run accepted an invalid fabric", c.name)
		}
	}
}

func TestNewSimulatorRejectsInvalidFabric(t *testing.T) {
	if _, err := NewSimulator(CircuitSwitched(WithLibraryCorner("nope"))); err == nil {
		t.Fatal("NewSimulator accepted an invalid fabric")
	}
}

func TestScenarioValidation(t *testing.T) {
	bad := []Scenario{
		{Name: "dup", Streams: []Stream{{ID: 1, In: Tile, Out: East}, {ID: 1, In: North, Out: Tile}}},
		{Name: "selfloop", Streams: []Stream{{ID: 1, In: East, Out: East}}},
		{Name: "zeroid", Streams: []Stream{{ID: 0, In: Tile, Out: East}}},
		{Name: "badport", Streams: []Stream{{ID: 1, In: Port(9), Out: East}}},
		{Name: "mixed", Streams: []Stream{{ID: 1, In: Tile, Out: East}}, Workloads: []string{"umts"}},
		{Name: "badwl", Workloads: []string{"bluetooth"}},
		{Name: "tinymesh", MeshWidth: 1, MeshHeight: 1, Workloads: []string{"drm"}},
	}
	for _, sc := range bad {
		if err := sc.withDefaults().Validate(); err == nil {
			t.Errorf("scenario %q: Validate accepted invalid input", sc.Name)
		}
	}
	if err := (Scenario{Name: "ok"}).withDefaults().Validate(); err != nil {
		t.Errorf("empty scenario (paper I) rejected: %v", err)
	}
}

// TestFabricParity runs the same scenario on all three fabrics and
// checks each returns a populated result.
func TestFabricParity(t *testing.T) {
	sim, err := NewSimulator()
	if err != nil {
		t.Fatal(err)
	}
	sc, err := PaperScenario("IV")
	if err != nil {
		t.Fatal(err)
	}
	sc.Cycles = 1500
	results, err := sim.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("results = %d, want 3", len(results))
	}
	kinds := map[Kind]*Result{}
	for _, r := range results {
		kinds[r.Fabric] = r
		if r.Scenario != "IV" {
			t.Errorf("%s: scenario %q, want IV", r.Fabric, r.Scenario)
		}
		if r.WordsSent == 0 || r.WordsDelivered == 0 {
			t.Errorf("%s: no traffic (sent=%d, delivered=%d)",
				r.Fabric, r.WordsSent, r.WordsDelivered)
		}
		if r.ThroughputMbps <= 0 {
			t.Errorf("%s: zero throughput", r.Fabric)
		}
		if r.Power == nil || r.Power.TotalUW <= 0 {
			t.Errorf("%s: power not populated", r.Fabric)
		}
		if r.Latency == nil || r.Latency.Words == 0 {
			t.Errorf("%s: latency not populated", r.Fabric)
		}
	}
	for _, k := range []Kind{KindCircuit, KindPacket, KindTDM} {
		if kinds[k] == nil {
			t.Errorf("missing result for fabric %s", k)
		}
	}
	// The paper's headline shape: the circuit-switched router is the
	// cheapest of the three, and its circuit delivers with zero jitter.
	cs, ps := kinds[KindCircuit], kinds[KindPacket]
	if cs.Power.TotalUW >= ps.Power.TotalUW {
		t.Errorf("circuit power %.1f uW not below packet %.1f uW",
			cs.Power.TotalUW, ps.Power.TotalUW)
	}
	if cs.Latency.JitterCycles != 0 {
		t.Errorf("circuit jitter %.1f, want 0", cs.Latency.JitterCycles)
	}
}

func TestResultJSONRoundTrip(t *testing.T) {
	f := CircuitSwitched(WithLatencyWords(50), WithMetrics(true))
	sc, err := PaperScenario("II")
	if err != nil {
		t.Fatal(err)
	}
	sc.Cycles = 1000
	res, err := f.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Result
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	// The metrics snapshot (kernel diagnostics included) is deliberately
	// excluded from the wire format (cross-kernel byte-identity), so it
	// cannot round-trip.
	if _, ok := metricValue(res, "kernel.polls"); !ok {
		t.Error("run attached no kernel diagnostics")
	}
	res.Metrics = nil
	// The raw latency samples are likewise off the wire: the summary
	// moments are the stable contract, the samples exist only so
	// replicated runs can pool them.
	if res.Latency != nil {
		res.Latency.Samples = nil
	}
	if !reflect.DeepEqual(*res, back) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", back, *res)
	}
	// Spot-check the wire names stay stable for downstream consumers.
	for _, key := range []string{`"fabric"`, `"words_delivered"`, `"throughput_mbps"`,
		`"power"`, `"static_uw"`, `"latency"`, `"jitter_cycles"`} {
		if !strings.Contains(string(b), key) {
			t.Errorf("JSON missing key %s:\n%s", key, b)
		}
	}
}

func TestPortJSON(t *testing.T) {
	b, err := json.Marshal(PaperStreams())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"in":"tile"`) {
		t.Fatalf("ports not marshaled by name: %s", b)
	}
	var back []Stream
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, PaperStreams()) {
		t.Fatalf("stream round trip mismatch: %+v", back)
	}
	var p Port
	if err := json.Unmarshal([]byte(`"sideways"`), &p); err == nil {
		t.Fatal("unknown port name accepted")
	}
}

// TestClockGatingReducesPower checks the WithClockGating option flows
// through to the simulation.
func TestClockGatingReducesPower(t *testing.T) {
	sc, err := PaperScenario("I")
	if err != nil {
		t.Fatal(err)
	}
	sc.Cycles = 1000
	u, err := CircuitSwitched().Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	g, err := CircuitSwitched(WithClockGating(true)).Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if g.Power.TotalUW >= u.Power.TotalUW {
		t.Errorf("gated power %.1f uW not below ungated %.1f uW",
			g.Power.TotalUW, u.Power.TotalUW)
	}
}

// TestLaneOptionBoundsStreams checks WithLanes interacts with stream IDs
// the way the lane-division architecture dictates.
func TestLaneOptionBoundsStreams(t *testing.T) {
	sc := Scenario{Name: "IV3", Streams: PaperStreams()} // IDs 1..3
	if _, err := CircuitSwitched(WithLanes(2), WithLatencyWords(0)).Run(sc); err == nil {
		t.Fatal("2-lane router accepted stream 3")
	}
	if _, err := CircuitSwitched(WithLanes(3), WithLatencyWords(0)).Run(sc); err != nil {
		t.Fatalf("3-lane router rejected streams 1..3: %v", err)
	}
}

func TestTDMRejectsSharedInputPort(t *testing.T) {
	sc := Scenario{Name: "shared", Streams: []Stream{
		{ID: 1, In: Tile, Out: East},
		{ID: 2, In: Tile, Out: West},
	}}
	if _, err := AetherealTDM().Run(sc); err == nil {
		t.Fatal("TDM fabric accepted two streams on one input port")
	}
}

func TestWorkloadUnsupportedOnPacketAndTDM(t *testing.T) {
	sc := Scenario{Name: "wl", Workloads: []string{"drm"}}
	if _, err := PacketSwitched().Run(sc); err == nil {
		t.Fatal("packet fabric accepted a workload scenario")
	}
	if _, err := AetherealTDM().Run(sc); err == nil {
		t.Fatal("TDM fabric accepted a workload scenario")
	}
}

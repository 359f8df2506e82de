package noc

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
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
		{"zero VCs", PacketSwitched(WithVirtualChannels(-1)), "VC"},
		{"negative buffer depth", PacketSwitched(WithBufferDepth(-4)), "depth"},
		{"negative slots", AetherealTDM(WithSlots(-1)), "slot"},
		{"negative BE depth", AetherealTDM(WithBEDepth(-1)), "BE depth"},
		{"bad corner", CircuitSwitched(WithLibraryCorner("ulp")), "corner"},
		{"bad latency words", PacketSwitched(WithLatencyWords(-7)), "latency"},
		{"latency words -1", CircuitSwitched(WithLatencyWords(-1)), "latency"},
		{"empty cache directory", CircuitSwitched(WithCache("")), "WithCache"},
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

// TestTDMSharedInputPort: streams entering one input port share its
// presenter, which multiplexes them onto the slots the table reserves
// for each (in,out) pair. Each stream set runs under both kernels with
// the same bytes, and every stream's words arrive but the last one
// still in flight at the end of the run. Two streams on one (in,out)
// pair still fail: the table books slots per pair.
func TestTDMSharedInputPort(t *testing.T) {
	for _, c := range []struct {
		streams         []Stream
		sent, delivered uint64
	}{
		{[]Stream{{ID: 1, In: Tile, Out: East}, {ID: 2, In: Tile, Out: West}}, 2000, 1998},
		{[]Stream{{ID: 1, In: North, Out: Tile}, {ID: 2, In: North, Out: East}, {ID: 3, In: North, Out: West}}, 3000, 2997},
	} {
		sc := Scenario{Name: "shared", Streams: c.streams}
		naive := runJSON(t, AetherealTDM(WithKernel(KernelNaive)), sc)
		active := runJSON(t, AetherealTDM(), sc)
		if !bytes.Equal(naive, active) {
			t.Fatalf("%v: kernels disagree\nnaive:  %s\nactive: %s", c.streams, naive, active)
		}
		var res Result
		if err := json.Unmarshal(active, &res); err != nil {
			t.Fatal(err)
		}
		if res.WordsSent != c.sent || res.WordsDelivered != c.delivered {
			t.Errorf("%v: sent %d, delivered %d words; want %d and %d",
				c.streams, res.WordsSent, res.WordsDelivered, c.sent, c.delivered)
		}
	}
	dup := Scenario{Name: "dup", Streams: []Stream{{ID: 1, In: Tile, Out: East}, {ID: 2, In: Tile, Out: East}}}
	if _, err := AetherealTDM().Run(dup); err == nil || !strings.Contains(err.Error(), "two flows from port Tile to port East") {
		t.Errorf("two streams on one (in,out) pair: err = %v", err)
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

// TestScenarioNonFiniteRejected: NaN and ±Inf in the frequency, flip
// probability or load fail Validate with the field named. Before, a NaN
// or +Inf frequency passed and ran to a Result whose NaN power could not
// be marshalled, and a NaN flip probability or load ran silently.
func TestScenarioNonFiniteRejected(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, c := range []struct {
			field string
			set   func(*Scenario)
		}{
			{"frequency", func(s *Scenario) { s.FreqMHz = v }},
			{"flip probability", func(s *Scenario) { s.Data.FlipProb = v }},
			{"load", func(s *Scenario) { s.Data.Load = v }},
		} {
			sc, err := PaperScenario("I")
			if err != nil {
				t.Fatal(err)
			}
			c.set(&sc)
			err = sc.withDefaults().Validate()
			if err == nil || !strings.Contains(err.Error(), c.field) {
				t.Errorf("%s %v: Validate error %v does not name the field", c.field, v, err)
			}
			if _, err := CircuitSwitched().Run(sc); err == nil {
				t.Errorf("%s %v: Run accepted the scenario", c.field, v)
			}
		}
	}
}

// hugeMeshes are mesh sizes from outside input that must fail before
// anything is built: one whose node count fits an int, and one whose
// W*H would overflow.
var hugeMeshes = []struct{ w, h int }{{100000, 100000}, {math.MaxInt, 2}}

// checkRejectsCheaply runs fn under testing.AllocsPerRun and checks it
// fails naming the offending value (a mesh size or a knob's field)
// without allocating anything sized by it.
func checkRejectsCheaply(t *testing.T, what, name string, fn func() error) {
	t.Helper()
	var err error
	allocs := testing.AllocsPerRun(1, func() { err = fn() })
	if err == nil || !strings.Contains(err.Error(), name) {
		t.Errorf("%s %s: error %v, want one naming %s", what, name, err, name)
	}
	if allocs > 100 {
		t.Errorf("%s %s: %v allocations to reject it", what, name, allocs)
	}
}

// TestMeshSizeBounded: a pattern or workload scenario, or a sweep's
// mesh_sizes axis, asking for a mesh over 65,536 nodes is rejected by
// validation, without the product W*H overflowing.
func TestMeshSizeBounded(t *testing.T) {
	for _, m := range hugeMeshes {
		mesh := fmt.Sprintf("%dx%d", m.w, m.h)
		checkRejectsCheaply(t, "pattern", mesh, func() error {
			return Scenario{Name: "p", Pattern: "uniform", MeshWidth: m.w, MeshHeight: m.h}.withDefaults().Validate()
		})
		checkRejectsCheaply(t, "workload", mesh, func() error {
			return Scenario{Name: "w", Workloads: []string{"umts"}, MeshWidth: m.w, MeshHeight: m.h}.withDefaults().Validate()
		})
	}
	checkRejectsCheaply(t, "sweep", "100000x100000", func() error {
		_, err := ParseSweepSpec([]byte(`{"grid":{"patterns":["uniform"],"mesh_sizes":[100000]}}`))
		return err
	})
	for _, ok := range []struct{ w, h int }{{2, 2}, {256, 256}, {2, 32768}} {
		if err := checkMesh(ok.w, ok.h); err != nil {
			t.Errorf("%dx%d rejected: %v", ok.w, ok.h, err)
		}
	}
	for _, bad := range []struct{ w, h int }{{1, 8}, {8, 1}, {257, 256}, {2, 32769}} {
		if err := checkMesh(bad.w, bad.h); err == nil {
			t.Errorf("%dx%d accepted", bad.w, bad.h)
		}
	}
}

// TestSweepJobsBounded: a sweep asking for more than maxSweepJobs jobs
// (cells × replications) is rejected, naming the count, before its grid
// is expanded or a cell allocated, and so is a scenario asking for more
// replications; a sweep at the bound is accepted.
func TestSweepJobsBounded(t *testing.T) {
	axis := func(scale float64) string {
		vals := make([]string, 50)
		for i := range vals {
			vals[i] = fmt.Sprint(float64(i+1) * scale)
		}
		return "[" + strings.Join(vals, ",") + "]"
	}
	// 3 fabrics × 4 paper scenarios × 50^4 grid points.
	huge := fmt.Sprintf(`{"grid":{"freqs_mhz":%s,"loads":%s,"flip_probs":%s,"cycles":%s}}`,
		axis(1), axis(0.02), axis(0.02), axis(100))
	if len(huge) >= 1024 {
		t.Fatalf("spec is %d bytes, want under 1 KB", len(huge))
	}
	for _, c := range []struct{ spec, count string }{
		{huge, "75000000 jobs"},
		{`{"fabrics":[{"kind":"circuit"}],"grid":{"scenarios":["I"]},"replications":1048577}`, "1048577 jobs"},
		{`{"scenarios":[{"name":"x","replications":1048577}]}`, "3145731 jobs"},
	} {
		checkRejectsCheaply(t, "sweep", c.count, func() error {
			_, err := ParseSweepSpec([]byte(c.spec))
			return err
		})
	}
	sc := Scenario{Name: "many", Replications: maxSweepJobs + 1}.withDefaults()
	checkRejectsCheaply(t, "scenario", "1048577 replications", sc.Validate)
	checkRejectsCheaply(t, "run", "1048577 replications", func() error {
		_, err := CircuitSwitched().Run(sc)
		return err
	})
	atBound := `{"fabrics":[{"kind":"circuit"}],"grid":{"scenarios":["I"]},"replications":1048576}`
	if _, err := ParseSweepSpec([]byte(atBound)); err != nil {
		t.Errorf("a sweep of exactly %d jobs rejected: %v", maxSweepJobs, err)
	}
}

// TestFabricKnobsBounded: a fabric knob past its router's bound is
// rejected by validation, naming the router parameter, before anything
// sized by lanes, VCs or slots is built — through an option, through
// FabricSpec.Fabric and through a sweep spec. The bounds themselves are
// accepted.
func TestFabricKnobsBounded(t *testing.T) {
	cases := []struct {
		spec   string // FabricSpec JSON
		field  string
		fabric Fabric
	}{
		{`{"kind":"circuit","lanes":100000000}`, "LanesPerPort", CircuitSwitched(WithLanes(100000000))},
		{`{"kind":"circuit","lanes":65}`, "LanesPerPort", CircuitSwitched(WithLanes(65))},
		{`{"kind":"packet","vcs":100000000,"buffer_depth":100000000}`, "VCs",
			PacketSwitched(WithVirtualChannels(100000000), WithBufferDepth(100000000))},
		{`{"kind":"packet","buffer_depth":1025}`, "Depth", PacketSwitched(WithBufferDepth(1025))},
		{`{"kind":"aethereal","slots":1000000000,"be_depth":1000000000}`, "Slots",
			AetherealTDM(WithSlots(1000000000), WithBEDepth(1000000000))},
		{`{"kind":"aethereal","be_depth":1025}`, "BEDepth", AetherealTDM(WithBEDepth(1025))},
	}
	for _, c := range cases {
		var fs FabricSpec
		if err := json.Unmarshal([]byte(c.spec), &fs); err != nil {
			t.Fatal(err)
		}
		checkRejectsCheaply(t, "option "+c.spec, c.field, c.fabric.Validate)
		checkRejectsCheaply(t, "FabricSpec "+c.spec, c.field, func() error {
			_, err := fs.Fabric()
			return err
		})
		checkRejectsCheaply(t, "sweep "+c.spec, c.field, func() error {
			_, err := ParseSweepSpec([]byte(`{"fabrics":[` + c.spec + `]}`))
			return err
		})
	}
	atCap := `{"fabrics":[{"kind":"circuit","lanes":64},` +
		`{"kind":"packet","vcs":64,"buffer_depth":1024},` +
		`{"kind":"aethereal","slots":1024,"be_depth":1024}]}`
	if _, err := ParseSweepSpec([]byte(atCap)); err != nil {
		t.Errorf("knobs at their bounds rejected: %v", err)
	}
	for _, f := range []Fabric{CircuitSwitched(WithLanes(64)),
		PacketSwitched(WithVirtualChannels(64), WithBufferDepth(1024)),
		AetherealTDM(WithSlots(1024), WithBEDepth(1024))} {
		if err := f.Validate(); err != nil {
			t.Errorf("%v rejected: %v", f, err)
		}
	}
}

package noc

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestWorkloadRunUMTS(t *testing.T) {
	res, err := CircuitSwitched().Run(Scenario{
		Name:      "umts",
		FreqMHz:   100,
		Cycles:    6000,
		Workloads: []string{"umts"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Channels) == 0 || len(res.Placements) == 0 {
		t.Fatalf("workload result not populated: %d channels, %d placements",
			len(res.Channels), len(res.Placements))
	}
	if !res.MetAllRequirements() {
		for _, c := range res.Channels {
			if !c.Met {
				t.Errorf("channel %s: %.2f of %.2f Mbit/s",
					c.Name, c.AchievedMbps, c.RequiredMbps)
			}
		}
	}
	if res.LinkUtilization <= 0 || res.LinkUtilization > 1 {
		t.Errorf("link utilization %v out of (0,1]", res.LinkUtilization)
	}
	if res.Power == nil || res.Power.TotalUW <= 0 {
		t.Error("workload power not populated")
	}
	// The whole result must survive JSON for nocmesh -json.
	b, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Result
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Channels) != len(res.Channels) {
		t.Errorf("channels lost in JSON: %d != %d", len(back.Channels), len(res.Channels))
	}
}

func TestWorkloadNodeTrace(t *testing.T) {
	res, err := CircuitSwitched(WithNodeTrace(256)).Run(Scenario{
		Name:      "drm",
		FreqMHz:   25,
		Cycles:    2000,
		Workloads: []string{"drm"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.NodeVCD) == 0 {
		t.Fatal("WithNodeTrace produced no VCD")
	}
	if !bytes.Contains(res.NodeVCD, []byte("$timescale")) {
		t.Errorf("VCD header missing:\n%.120s", res.NodeVCD)
	}
}

func TestWorkloadMultimode(t *testing.T) {
	res, err := CircuitSwitched().Run(Scenario{
		Name:       "multi",
		FreqMHz:    100,
		Cycles:     4000,
		MeshWidth:  5,
		MeshHeight: 4,
		Workloads:  []string{"umts", "drm"},
	})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, c := range res.Channels {
		seen[c.Workload] = true
	}
	if !seen["umts"] || !seen["drm"] {
		t.Fatalf("missing per-workload channels: %v", seen)
	}
}

func TestWorkloadGraphNames(t *testing.T) {
	for _, wl := range Workloads() {
		if _, err := workloadGraph(wl, 12); err != nil {
			t.Errorf("advertised workload %q does not resolve: %v", wl, err)
		}
	}
	if _, err := workloadGraph("hiperlan", 12); err != nil {
		t.Errorf("alias hiperlan rejected: %v", err)
	}
}

// TestUMTSFingersBoundedByTiles: umts:N makes each rake finger a process
// of its own, so an N above the mesh's tile count cannot map and is
// rejected before the graph is built. A scenario, sweep cell or
// Network.Map asking for 100000 fingers used to build 100000 processes
// and 300000 channels first (about 800k allocations). Plain umts on 2×2
// still fails where it always did, in the mapping.
func TestUMTSFingersBoundedByTiles(t *testing.T) {
	sc := Scenario{Name: "big", Workloads: []string{"umts:100000"}, MeshWidth: 4, MeshHeight: 3}.withDefaults()
	var err error
	allocs := testing.AllocsPerRun(3, func() { err = sc.Validate() })
	if err == nil || !strings.Contains(err.Error(), "12 tiles") {
		t.Errorf("Validate(umts:100000 on 4x3) = %v, want an error naming the 12 tiles", err)
	}
	if allocs > 16 {
		t.Errorf("Validate(umts:100000 on 4x3) made %.0f allocations, want <= 16", allocs)
	}
	net, err := NewNetwork(4, 3, 100)
	if err != nil {
		t.Fatal(err)
	}
	allocs = testing.AllocsPerRun(3, func() { _, err = net.Map("umts:100000") })
	if err == nil || allocs > 16 {
		t.Errorf("Network.Map(umts:100000 on 4x3) = %v after %.0f allocations, want an error within 16", err, allocs)
	}
	fits := Scenario{Name: "fits", Workloads: []string{"umts:12"}, MeshWidth: 4, MeshHeight: 3}.withDefaults()
	if err := fits.Validate(); err != nil {
		t.Errorf("umts:12 on 4x3: %v", err)
	}
	small, err := NewNetwork(2, 2, 100)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := small.Map("umts"); err == nil || !strings.Contains(err.Error(), "10 processes but only 4 free tiles") {
		t.Errorf("umts on 2x2: %v, want the mapping's tile-count error", err)
	}
}

func TestExperimentsFacade(t *testing.T) {
	exps := Experiments()
	if len(exps) < 15 {
		t.Fatalf("only %d experiments exposed", len(exps))
	}
	var buf bytes.Buffer
	if err := RunExperiment(&buf, "table3"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Stream") {
		t.Errorf("table3 render: %q", buf.String())
	}
	// Every experiment encodes as JSON and decodes again with its
	// identity and data intact; a non-finite float in a result (beload's
	// P95 lies past its histogram's last bound at high load) must not
	// break the encoding.
	ids := make([]string, len(exps))
	for i, e := range exps {
		ids[i] = e.ID
	}
	docs, err := ExperimentsJSON(ids, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != len(exps) {
		t.Fatalf("%d documents for %d experiments", len(docs), len(exps))
	}
	for i, e := range exps {
		var decoded struct {
			Experiment
			Data json.RawMessage `json:"data"`
		}
		if err := json.Unmarshal(docs[i], &decoded); err != nil {
			t.Errorf("%s: experiment JSON invalid: %v", e.ID, err)
			continue
		}
		if decoded.Experiment != e || len(decoded.Data) == 0 || string(decoded.Data) == "null" {
			t.Errorf("%s: experiment JSON incomplete: %.200s", e.ID, docs[i])
		}
	}
	docs, err = ExperimentsJSON([]string{"table3", "nope"}, 1)
	if err == nil || err.Error() != `experiments: unknown experiment "nope"` || docs != nil {
		t.Errorf("unknown experiment: %d documents, error %v", len(docs), err)
	}
}

func TestStreamOFDMSymbols(t *testing.T) {
	res, err := StreamOFDMSymbols(5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Symbols != 5 {
		t.Fatalf("delivered %d symbols, want 5", res.Symbols)
	}
	if !res.Met() {
		t.Fatalf("deadline property violated: %+v", res)
	}
	if res.WordsPerSymbol != 160 || res.CyclesPerSymbol != 800 {
		t.Fatalf("symbol geometry %d words / %d cycles", res.WordsPerSymbol, res.CyclesPerSymbol)
	}
	if _, err := StreamOFDMSymbols(0); err == nil {
		t.Error("zero symbols accepted")
	}
}

func TestCaptureWaveform(t *testing.T) {
	wf, err := CaptureWaveform()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(wf.ASCII, "tx0.lane") {
		t.Errorf("ASCII waveform missing probe name:\n%s", wf.ASCII)
	}
	// The serialized word's nibbles (0x7CAFE) must appear on the lane.
	if !strings.Contains(wf.ASCII, "7|c|a|f|e") {
		t.Errorf("ASCII waveform missing the 0x7CAFE nibble sequence:\n%s", wf.ASCII)
	}
	if len(wf.VCD) == 0 || wf.Cycles == 0 || len(wf.Signals) == 0 {
		t.Errorf("waveform not populated: %d VCD bytes, %d cycles, %d signals",
			len(wf.VCD), wf.Cycles, len(wf.Signals))
	}
}

func TestRenderSynth(t *testing.T) {
	var buf bytes.Buffer
	if err := RenderSynthTable(&buf, "nominal"); err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"circuit switched", "packet switched", "Aethereal"} {
		if !strings.Contains(buf.String(), frag) {
			t.Errorf("synth table missing %q", frag)
		}
	}
	buf.Reset()
	if err := RenderSynthDesign(&buf, "circuit", "hvt"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "leakage") {
		t.Errorf("design report missing leakage: %q", buf.String())
	}
	if err := RenderSynthTable(&buf, "ulv"); err == nil {
		t.Error("unknown corner accepted")
	}
	if err := RenderSynthDesign(&buf, "soc", "nominal"); err == nil {
		t.Error("unknown design accepted")
	}
}

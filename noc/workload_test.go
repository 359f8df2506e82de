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
		if _, err := workloadGraph(wl); err != nil {
			t.Errorf("advertised workload %q does not resolve: %v", wl, err)
		}
	}
	if _, err := workloadGraph("hiperlan"); err != nil {
		t.Errorf("alias hiperlan rejected: %v", err)
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
	data, err := ExperimentData("table3")
	if err != nil {
		t.Fatal(err)
	}
	if data == nil {
		t.Fatal("nil experiment data")
	}
	// Every experiment encodes as JSON and decodes again with its
	// identity and data intact; a non-finite float in a result (beload's
	// P95 lies past its histogram's last bound at high load) must not
	// break the encoding.
	for _, e := range exps {
		b, err := ExperimentJSON(e.ID)
		if err != nil {
			t.Errorf("%s: %v", e.ID, err)
			continue
		}
		var decoded struct {
			ID   string          `json:"id"`
			Data json.RawMessage `json:"data"`
		}
		if err := json.Unmarshal(b, &decoded); err != nil {
			t.Errorf("%s: experiment JSON invalid: %v", e.ID, err)
			continue
		}
		if decoded.ID != e.ID || len(decoded.Data) == 0 || string(decoded.Data) == "null" {
			t.Errorf("%s: experiment JSON incomplete: %.200s", e.ID, b)
		}
	}
	if _, err := ExperimentData("nope"); err == nil {
		t.Error("unknown experiment accepted")
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

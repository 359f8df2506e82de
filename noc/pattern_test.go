package noc

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/sim"
)

// patternScenario is the shared small pattern run of these tests.
func patternScenario() Scenario {
	return Scenario{
		Name: "pat", Pattern: "hotspot:0.6", MeshWidth: 4, MeshHeight: 4,
		Cycles: 2500, Seed: 3,
		Injection: &Injection{Process: "poisson", Rate: 0.05},
	}
}

// runJSON runs the scenario on the fabric and returns the Result JSON.
func runJSON(t *testing.T, f Fabric, sc Scenario) []byte {
	t.Helper()
	r, err := f.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestPatternScenarioAllFabrics: a pattern scenario runs on all three
// fabrics and produces traffic, power and latency.
func TestPatternScenarioAllFabrics(t *testing.T) {
	sim, err := NewSimulator()
	if err != nil {
		t.Fatal(err)
	}
	rs, err := sim.Run(patternScenario())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs {
		if r.WordsDelivered == 0 {
			t.Errorf("%s: nothing delivered", r.Fabric)
		}
		if r.Power == nil || r.Power.TotalUW <= 0 {
			t.Errorf("%s: no power estimate", r.Fabric)
		}
		if r.Latency == nil || r.Latency.Words == 0 {
			t.Errorf("%s: no latency measurement", r.Fabric)
		}
		if r.FlowsRequested == 0 || r.FlowsEstablished == 0 {
			t.Errorf("%s: no flows (%d/%d)", r.Fabric, r.FlowsEstablished, r.FlowsRequested)
		}
	}
	// The hotspot pattern on a circuit fabric is admission-limited:
	// some flows must be rejected, and the packet fabric admits all.
	if rs[0].FlowsEstablished >= rs[0].FlowsRequested {
		t.Errorf("circuit admitted all %d hotspot flows; expected lane blocking", rs[0].FlowsRequested)
	}
}

// TestPatternKernelEquivalence: pattern runs are byte-identical across
// the three kernels on every fabric.
func TestPatternKernelEquivalence(t *testing.T) {
	sc := patternScenario()
	build := []func(...Option) Fabric{CircuitSwitched, PacketSwitched, AetherealTDM}
	for _, mk := range build {
		naive := runJSON(t, mk(WithKernel(KernelNaive)), sc)
		gated := runJSON(t, mk(WithKernel(KernelGated)), sc)
		event := runJSON(t, mk(WithKernel(KernelEvent)), sc)
		active1 := runJSON(t, mk(WithKernel(KernelActive), WithParallelism(1)), sc)
		active8 := runJSON(t, mk(WithKernel(KernelActive), WithParallelism(8)), sc)
		kind := mk().Kind()
		if !bytes.Equal(naive, gated) {
			t.Errorf("%s: naive vs gated results differ", kind)
		}
		if !bytes.Equal(naive, event) {
			t.Errorf("%s: naive vs event results differ", kind)
		}
		if !bytes.Equal(naive, active1) {
			t.Errorf("%s: naive vs active results differ", kind)
		}
		if !bytes.Equal(active1, active8) {
			t.Errorf("%s: active results differ between 1 and 8 workers", kind)
		}
	}
}

// TestPatternSparse16x16EventSpeedup is the acceptance check of the
// pattern subsystem: a sparse-injection (0.05 flits/cycle/node, under
// the 0.1 ceiling) 16×16 uniform pattern with finite flows must (a)
// produce byte-identical Results under naive, gated and event kernels
// and (b) cut the event kernel's per-cycle component visits at least
// 5× below the gated kernel's, via fast-forward. The visit count is a
// deterministic proxy for wall-clock speed — the wall-clock comparison
// lives in the pattern kernel benchmarks (BENCH_ci).
func TestPatternSparse16x16EventSpeedup(t *testing.T) {
	sc := Scenario{
		Name: "sparse16", Pattern: "uniform", MeshWidth: 16, MeshHeight: 16,
		Cycles: 20000, Seed: 9, WordsPerStream: 4,
		Injection: &Injection{Process: "bernoulli", Rate: 0.05},
	}
	naive := runJSON(t, CircuitSwitched(WithKernel(KernelNaive)), sc)
	gated := runJSON(t, CircuitSwitched(WithKernel(KernelGated)), sc)
	event := runJSON(t, CircuitSwitched(WithKernel(KernelEvent)), sc)
	if !bytes.Equal(naive, gated) {
		t.Error("naive vs gated results differ")
	}
	if !bytes.Equal(naive, event) {
		t.Error("naive vs event results differ")
	}

	// Work proxy: the gated kernel visits every component every cycle
	// (to poll quiescence); the event kernel only visits components on
	// live cycles plus one O(components) replay per fast-forward
	// window.
	var ffWindows, ffCycles, cycles uint64
	r, err := CircuitSwitched(WithKernel(KernelEvent), withWorldObserver(func(w *sim.World) {
		ffWindows, ffCycles = w.FastForwards()
		cycles = w.Cycle()
	})).Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if r.WordsSent == 0 || r.WordsDelivered != r.WordsSent {
		t.Fatalf("finite run did not drain: sent %d delivered %d", r.WordsSent, r.WordsDelivered)
	}
	if cycles == 0 {
		t.Fatal("observer saw no cycles")
	}
	gatedVisits := float64(cycles)
	eventVisits := float64(cycles-ffCycles) + float64(ffWindows)
	if speedup := gatedVisits / eventVisits; speedup < 5 {
		t.Errorf("event kernel visit reduction %.1fx < 5x (ff %d cycles in %d windows of %d)",
			speedup, ffCycles, ffWindows, cycles)
	}
}

// TestPatternSparse16x16ActivePolls is the acceptance check of the
// active kernel's parked list: on the same sparse 16×16 pattern run it
// must (a) stay byte-identical to the event kernel, (b) actually park
// and re-activate components, and (c) issue at most a fifth of the
// event kernel's Quiescent() polls — the event kernel re-polls every
// component on every live cycle, the active kernel only polls the
// active list. The all-to-hotspot pattern is admission-limited on the
// circuit fabric: only the few flows that win lanes into the centre
// establish, so most of the mesh holds no circuit, latches asleep
// (sim.Sleeper) and parks, while the sustained low-rate injection keeps
// the event kernel from ever fast-forwarding past the live circuits.
// The poll count is a deterministic proxy for wall-clock speed; the
// measured comparison lives in the pattern kernel benchmarks
// (BENCH_active).
func TestPatternSparse16x16ActivePolls(t *testing.T) {
	sc := Scenario{
		Name: "sparse16", Pattern: "hotspot:1", MeshWidth: 16, MeshHeight: 16,
		Cycles: 5000, Seed: 9,
		Injection: &Injection{Process: "bernoulli", Rate: 0.05},
	}
	event, err := CircuitSwitched(WithKernel(KernelEvent), WithMetrics(true)).Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	active, err := CircuitSwitched(WithKernel(KernelActive), WithMetrics(true)).Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	be, err := json.Marshal(event)
	if err != nil {
		t.Fatal(err)
	}
	ba, err := json.Marshal(active)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(be, ba) {
		t.Errorf("event vs active results differ\n%s\n%s", be, ba)
	}
	ep, eok := metricValue(event, "kernel.polls")
	ap, aok := metricValue(active, "kernel.polls")
	if !eok || !aok {
		t.Fatal("runs attached no kernel diagnostics")
	}
	if v, _ := metricValue(active, "kernel.parked"); v == 0 {
		t.Error("active kernel run ended with nothing parked")
	}
	if v, _ := metricValue(active, "kernel.activations"); v == 0 {
		t.Error("active kernel run performed no activations")
	}
	if ap*5 > ep {
		t.Errorf("active kernel polls %d > 1/5 of event kernel polls %d (%.1fx reduction)",
			ap, ep, float64(ep)/float64(ap))
	}
}

// TestSweepActiveWorkerCountByteIdentical pins the worker-count
// determinism contract at the sweep level, the same comparison the CI
// -simworkers byte-compare job performs with nocbench: one sweep spec
// run under the active kernel with 1 and 8 Eval workers must emit
// byte-identical JSON.
func TestSweepActiveWorkerCountByteIdentical(t *testing.T) {
	spec := SweepSpec{
		Name:    "active-workers",
		Fabrics: []FabricSpec{{Kind: KindCircuit}, {Kind: KindPacket}, {Kind: KindTDM}},
		Grid: &Grid{
			Patterns:       []string{"uniform", "transpose"},
			MeshSizes:      []int{4},
			InjectionRates: []float64{0.05},
			Cycles:         []int{1500},
		},
		Kernel: string(KernelActive),
		Seed:   7,
	}
	var out1, out8 bytes.Buffer
	spec.SimWorkers = 1
	if err := SweepJSON(context.Background(), spec, &out1); err != nil {
		t.Fatal(err)
	}
	spec.SimWorkers = 8
	if err := SweepJSON(context.Background(), spec, &out8); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out1.Bytes(), out8.Bytes()) {
		t.Errorf("sweep JSON differs between 1 and 8 workers\n%s\n%s",
			out1.Bytes(), out8.Bytes())
	}
	if out1.Len() == 0 {
		t.Fatal("sweep emitted nothing")
	}
}

// TestTDMPowerIdenticalAcrossKernels verifies the folded meter tick:
// with the every-cycle meter Func replaced by the router's own
// IdleTick/IdleWindow bookkeeping, TDM power totals stay bit-identical
// across all three kernels on classic stream scenarios — including a
// finite run whose drained tail the event kernel fast-forwards.
func TestTDMPowerIdenticalAcrossKernels(t *testing.T) {
	base, err := PaperScenario("IV")
	if err != nil {
		t.Fatal(err)
	}
	base.Cycles = 4000
	finite := base
	finite.WordsPerStream = 50
	for _, sc := range []Scenario{base, finite} {
		naive := runJSON(t, AetherealTDM(WithKernel(KernelNaive)), sc)
		gated := runJSON(t, AetherealTDM(WithKernel(KernelGated)), sc)
		event := runJSON(t, AetherealTDM(WithKernel(KernelEvent)), sc)
		if !bytes.Equal(naive, gated) || !bytes.Equal(naive, event) {
			t.Errorf("words_per_stream=%d: TDM results differ across kernels", sc.WordsPerStream)
		}
	}
}

// TestTDMFiniteRunFastForwards: with the meter tick folded into the
// router and stream drivers componentized, a drained TDM scenario
// fast-forwards (the ROADMAP's "TDM meter tick without a monitor").
func TestTDMFiniteRunFastForwards(t *testing.T) {
	sc, err := PaperScenario("II")
	if err != nil {
		t.Fatal(err)
	}
	sc.Cycles = 50000
	sc.WordsPerStream = 20
	var ffCycles uint64
	_, err = AetherealTDM(WithKernel(KernelEvent), withWorldObserver(func(w *sim.World) {
		_, ffCycles = w.FastForwards()
	})).Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if float64(ffCycles) < 0.8*float64(sc.Cycles) {
		t.Errorf("TDM finite run fast-forwarded only %d of %d cycles", ffCycles, sc.Cycles)
	}
}

// TestPatternSweepDeterminism: a pattern grid sweep is byte-identical
// across worker counts and across kernels.
func TestPatternSweepDeterminism(t *testing.T) {
	spec := SweepSpec{
		Fabrics: []FabricSpec{{Kind: KindCircuit}, {Kind: KindPacket}, {Kind: KindTDM}},
		Grid: &Grid{
			Patterns:       []string{"hotspot", "transpose"},
			MeshSizes:      []int{4},
			InjectionRates: []float64{0.02, 0.08},
			Cycles:         []int{1200},
		},
		Seed: 5,
	}
	out := func(workers int, kernel string) []byte {
		s := spec
		s.Workers = workers
		s.Kernel = kernel
		var buf bytes.Buffer
		if err := SweepJSON(context.Background(), s, &buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	w1 := out(1, "")
	w8 := out(8, "")
	if !bytes.Equal(w1, w8) {
		t.Error("pattern sweep differs between 1 and 8 workers")
	}
	for _, k := range []string{"gated", "naive"} {
		if !bytes.Equal(w1, out(4, k)) {
			t.Errorf("pattern sweep differs between event and %s kernels", k)
		}
	}
	if !bytes.Contains(w1, []byte(`"pattern"`)) {
		t.Error("sweep output carries no pattern field")
	}
}

// TestPatternSweepBurstinessAxis: the burstiness axis switches cells to
// the on-off process and expands the grid.
func TestPatternSweepBurstinessAxis(t *testing.T) {
	spec := SweepSpec{
		Fabrics: []FabricSpec{{Kind: KindPacket}},
		Grid: &Grid{
			Patterns:   []string{"uniform"},
			Burstiness: []float64{2, 8},
			Cycles:     []int{800},
		},
		Seed: 1,
	}
	cells, err := spec.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("got %d cells, want 2", len(cells))
	}
	for _, c := range cells {
		if c.Scenario.Injection == nil || c.Scenario.Injection.Process != "onoff" {
			t.Errorf("cell %d: burstiness axis did not select onoff (%+v)", c.Index, c.Scenario.Injection)
		}
	}
	// The struct entry point takes the same onoff burstiness default as
	// the string parser, so the equivalent JSON spec validates too.
	sc := Scenario{Pattern: "uniform", Injection: &Injection{Process: "onoff", Rate: 0.1}}
	if err := sc.withDefaults().Validate(); err != nil {
		t.Errorf("onoff without burstiness rejected on the struct path: %v", err)
	}
	// Axis misuse fails loudly.
	bad := SweepSpec{Grid: &Grid{Burstiness: []float64{2}}}
	if err := bad.Validate(); err == nil {
		t.Error("burstiness without patterns accepted")
	}
	bad = SweepSpec{Grid: &Grid{Patterns: []string{"uniform"}, Workloads: []string{"drm"}}}
	if err := bad.Validate(); err == nil {
		t.Error("patterns+workloads accepted")
	}
}

// TestNonFinitePatternParametersRejected: NaN and infinite pattern
// parameters fail on both entry points, the -inject parser and a
// scenario's own fields, with an error naming the field.
func TestNonFinitePatternParametersRejected(t *testing.T) {
	if _, err := ParseInjection("poisson:nan"); err == nil || !strings.Contains(err.Error(), "rate") {
		t.Errorf("ParseInjection(poisson:nan): error %v does not name the rate", err)
	}
	for _, c := range []struct {
		field string
		sc    Scenario
	}{
		{"hotspot fraction", Scenario{Pattern: "hotspot:nan"}},
		{"rate", Scenario{Pattern: "uniform", Injection: &Injection{Rate: math.NaN()}}},
		{"burstiness", Scenario{Pattern: "uniform",
			Injection: &Injection{Process: "onoff", Rate: 0.1, Burstiness: math.Inf(1)}}},
	} {
		err := c.sc.withDefaults().Validate()
		if err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("non-finite %s: Validate error %v does not name it", c.field, err)
		}
	}
}

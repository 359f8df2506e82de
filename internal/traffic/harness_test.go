package traffic

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/packetsw"
	"repro/internal/pattern"
	"repro/internal/sim"
	"repro/internal/stdcell"
)

// allKernels is the equivalence set every runner-level test compares
// across: the naive oracle and the production kernel.
var allKernels = []sim.Kernel{sim.KernelNaive, sim.KernelActive}

// TestRunCircuitKernelEquivalence: the scenario runner must produce
// identical results under both kernels, including with a finite word
// budget whose exhausted sources go quiescent mid-run — the case where
// the production kernel fast-forwards the drained tail of the run.
func TestRunCircuitKernelEquivalence(t *testing.T) {
	lib := stdcell.Default013()
	pat := Pattern{FlipProb: 0.5, Load: 1}
	for _, limit := range []uint64{0, 50} {
		results := make([]Result, len(allKernels))
		for i, k := range allKernels {
			cfg := RunConfig{Cycles: 2000, FreqMHz: 25, Lib: lib,
				Kernel: k, WordsPerStream: limit}
			res, err := RunCircuit(Scenarios()[2], pat, cfg)
			if err != nil {
				t.Fatalf("kernel %v limit %d: %v", k, limit, err)
			}
			results[i] = res
		}
		for i := 1; i < len(results); i++ {
			if !reflect.DeepEqual(results[0], results[i]) {
				t.Errorf("limit %d: kernels disagree:\n%v: %+v\n%v: %+v",
					limit, allKernels[0], results[0], allKernels[i], results[i])
			}
		}
	}
}

// TestWordsPerStreamCapsSources: the budget is honoured exactly and the
// retired sources stop the word counters.
func TestWordsPerStreamCapsSources(t *testing.T) {
	lib := stdcell.Default013()
	cfg := RunConfig{Cycles: 3000, FreqMHz: 25, Lib: lib, WordsPerStream: 40}
	res, err := RunCircuit(Scenarios()[2], Pattern{FlipProb: 0.5, Load: 1}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Scenario III has two streams; each source must stop at its budget.
	if res.WordsSent != 80 {
		t.Fatalf("WordsSent = %d, want 80 (2 streams x 40 words)", res.WordsSent)
	}
	if res.WordsDelivered == 0 {
		t.Fatal("nothing delivered")
	}
}

// TestRunPacketKernelEquivalence covers the packet-switched runner.
func TestRunPacketKernelEquivalence(t *testing.T) {
	lib := stdcell.Default013()
	pat := Pattern{FlipProb: 0.5, Load: 1}
	results := make([]Result, len(allKernels))
	for i, k := range allKernels {
		cfg := RunConfig{Cycles: 1500, FreqMHz: 25, Lib: lib, Kernel: k}
		res, err := RunPacket(Scenarios()[3], pat, cfg)
		if err != nil {
			t.Fatalf("kernel %v: %v", k, err)
		}
		results[i] = res
	}
	for i := 1; i < len(results); i++ {
		if !reflect.DeepEqual(results[0], results[i]) {
			t.Errorf("kernels disagree:\n%v: %+v\n%v: %+v",
				allKernels[0], results[0], allKernels[i], results[i])
		}
	}
}

// TestMeasureLatencyKernelEquivalence covers both latency harnesses,
// which exercise the wake path (Push/Pop from stimulus placed after the
// component in Eval order).
func TestMeasureLatencyKernelEquivalence(t *testing.T) {
	type lat struct {
		words  int
		mean   float64
		jitter float64
	}
	measure := func(k sim.Kernel) (lat, lat) {
		cr, err := MeasureCircuitLatency(core.DefaultParams(), 1, 60, sim.WithKernel(k))
		if err != nil {
			t.Fatalf("circuit %v: %v", k, err)
		}
		pr, err := MeasurePacketLatency(packetsw.DefaultParams(), 1, 60, true, sim.WithKernel(k))
		if err != nil {
			t.Fatalf("packet %v: %v", k, err)
		}
		return lat{cr.Words, cr.Cycles.Mean(), cr.Jitter},
			lat{pr.Words, pr.Cycles.Mean(), pr.Jitter}
	}
	cn, pn := measure(sim.KernelNaive)
	ca, pa := measure(sim.KernelActive)
	if cn != ca {
		t.Errorf("circuit latency disagrees: naive %+v active %+v", cn, ca)
	}
	if pn != pa {
		t.Errorf("packet latency disagrees: naive %+v active %+v", pn, pa)
	}
}

// TestWordsPerStreamPacketBoundary: on the packet fabric the word budget
// is applied at packet boundaries — an opened wormhole packet always
// completes (and closes with its Tail flit), so the cap rounds up to the
// 16-word packet length rather than truncating a packet mid-flight and
// leaking its output-VC ownership.
func TestWordsPerStreamPacketBoundary(t *testing.T) {
	lib := stdcell.Default013()
	cfg := RunConfig{Cycles: 4000, FreqMHz: 25, Lib: lib, WordsPerStream: 20}
	// Scenario III: stream 1 (Tile→East) and stream 2 (North→Tile); only
	// the latter is observable end to end at the tile ejection port.
	res, err := RunPacket(Scenarios()[2], Pattern{FlipProb: 0.5, Load: 1}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 20 words round up to 2 full packets of PacketWordsPerPacket each.
	perStream := uint64(2 * PacketWordsPerPacket)
	if want := 2 * perStream; res.WordsSent != want {
		t.Fatalf("WordsSent = %d, want %d (budget rounded to packet boundary)",
			res.WordsSent, want)
	}
	if res.WordsDelivered != perStream {
		t.Fatalf("delivered %d, want %d: stream 2's final packet did not drain",
			res.WordsDelivered, perStream)
	}
}

// TestPacketDrainTrace: both packet harnesses pop the tile ejection
// queue through one drain. A traced stream run emits one deliver event
// per delivered data word on the tile.sink track; a traced pattern run,
// whose deliveries are timed per flow, emits none there.
func TestPacketDrainTrace(t *testing.T) {
	sinkDelivers := func(c *obs.Collector) int {
		n := 0
		for _, e := range c.Events() {
			if e.Track == "tile.sink" && e.Kind == obs.KindDeliver {
				n++
			}
		}
		return n
	}
	c := obs.NewCollector()
	cfg := RunConfig{Cycles: 1500, FreqMHz: 25, Lib: stdcell.Default013(), Obs: obs.Hooks{Tracer: c}}
	res, err := RunPacket(Scenarios()[2], Pattern{FlipProb: 0.5, Load: 1}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := sinkDelivers(c); res.WordsDelivered == 0 || got != int(res.WordsDelivered) {
		t.Fatalf("stream run: %d tile.sink deliveries for %d words delivered", got, res.WordsDelivered)
	}

	c = obs.NewCollector()
	rc := patternRC(sim.KernelActive)
	rc.Obs.Tracer = c
	pr, err := RunPacketPattern(testFlows(), pattern.Injection{Proc: pattern.Poisson, Rate: 0.05}, 0.5, rc)
	if err != nil {
		t.Fatal(err)
	}
	if got := sinkDelivers(c); pr.WordsDelivered == 0 || c.Len() == 0 || got != 0 {
		t.Fatalf("pattern run: %d tile.sink deliveries (%d events, %d words delivered), want none",
			got, c.Len(), pr.WordsDelivered)
	}
}

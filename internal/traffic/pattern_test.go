package traffic

import (
	"reflect"
	"testing"

	"repro/internal/aethereal"
	"repro/internal/core"
	"repro/internal/packetsw"
	"repro/internal/pattern"
	"repro/internal/sim"
	"repro/internal/stdcell"
)

// patternRC is the shared run configuration of these tests.
func patternRC(k sim.Kernel) RunConfig {
	return RunConfig{Cycles: 2500, FreqMHz: 25, Lib: stdcell.Default013(),
		Seed: 3, Kernel: k}
}

// testFlows projects a hotspot pattern onto the centre of a 4×4 mesh —
// a mix of tile, through and turning flows on several ports.
func testFlows() []pattern.PortFlow {
	return pattern.PortFlows(pattern.Spatial{Kind: pattern.Hotspot, Alpha: 0.6},
		4, 4, pattern.HotspotNode(4, 4), 3)
}

func TestRunPacketPatternKernelEquivalence(t *testing.T) {
	inj := pattern.Injection{Proc: pattern.Poisson, Rate: 0.05}
	run := func(k sim.Kernel) PatternRunResult {
		res, err := RunPacketPattern(testFlows(), inj, 0.5, patternRC(k))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	naive, gated, event := run(sim.KernelNaive), run(sim.KernelGated), run(sim.KernelEvent)
	if naive.WordsDelivered == 0 {
		t.Fatal("nothing delivered")
	}
	if !reflect.DeepEqual(naive, gated) || !reflect.DeepEqual(naive, event) {
		t.Errorf("packet pattern results differ across kernels:\nnaive %+v\ngated %+v\nevent %+v",
			naive, gated, event)
	}
}

// TestRunPacketPatternDepthOne: the feeder's exact in-flight accounting
// must keep flows moving (and never overflow or drop) even at the
// minimum FIFO depth, where a conservative one-slot margin would stall
// every mesh-port flow forever.
func TestRunPacketPatternDepthOne(t *testing.T) {
	pp := packetsw.DefaultParams()
	pp.Depth = 1
	cfg := patternRC(sim.KernelEvent)
	cfg.PSParams = &pp
	res, err := RunPacketPattern(testFlows(), pattern.Injection{Proc: pattern.CBR, Rate: 0.05}, 0.5, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.WordsDelivered == 0 {
		t.Fatal("depth-1 run delivered nothing: mesh-port feeders stalled")
	}
}

func TestRunTDMPatternKernelEquivalence(t *testing.T) {
	inj := pattern.Injection{Proc: pattern.OnOff, Rate: 0.05, Burstiness: 4}
	run := func(k sim.Kernel) PatternRunResult {
		res, err := RunTDMPattern(aethereal.DefaultParams(), testFlows(), inj, 0.5, patternRC(k))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	naive, gated, event := run(sim.KernelNaive), run(sim.KernelGated), run(sim.KernelEvent)
	if naive.WordsDelivered == 0 {
		t.Fatal("nothing delivered")
	}
	if !reflect.DeepEqual(naive, gated) || !reflect.DeepEqual(naive, event) {
		t.Errorf("TDM pattern results differ across kernels")
	}
}

// TestRunTDMPatternAdmission: a slot table too small for the projected
// hotspot load must reject some flows rather than oversubscribe.
func TestRunTDMPatternAdmission(t *testing.T) {
	ap := aethereal.DefaultParams()
	ap.Slots = 4
	res, err := RunTDMPattern(ap, testFlows(), pattern.Injection{Proc: pattern.Poisson, Rate: 0.5},
		0.5, patternRC(sim.KernelEvent))
	if err != nil {
		t.Fatal(err)
	}
	if res.FlowsEstablished >= res.FlowsRequested {
		t.Errorf("tiny slot table admitted all %d flows", res.FlowsRequested)
	}
	if res.FlowsEstablished == 0 {
		t.Error("no flow admitted at all")
	}
}

// TestPortFlowsFeedTileAndMeshPorts sanity-checks the projection the
// harnesses consume: the hotspot centre sees tile-bound traffic from
// several mesh ports plus its own injections.
func TestPortFlowsFeedTileAndMeshPorts(t *testing.T) {
	flows := testFlows()
	var tileOut, tileIn, mesh int
	for _, f := range flows {
		if f.Out == core.Tile {
			tileOut++
		}
		if f.In == core.Tile {
			tileIn++
		} else {
			mesh++
		}
	}
	if tileOut == 0 || tileIn == 0 || mesh == 0 {
		t.Fatalf("degenerate projection: tileOut=%d tileIn=%d mesh=%d", tileOut, tileIn, mesh)
	}
}

// TestHotspotOneZeroWeightFlows pins the zero-probability port pairs of
// a hotspot:1 projection. On the centre of a 16×16 mesh, 8 of the 16
// port pairs carry only through traffic between non-hotspot nodes,
// which hotspot:1 sends with probability 0. They count as requested but
// are never established, and every later flow's tag and seed follow
// from its position in the list, so pattern results depend on them.
func TestHotspotOneZeroWeightFlows(t *testing.T) {
	flows := pattern.PortFlows(pattern.Spatial{Kind: pattern.Hotspot, Alpha: 1},
		16, 16, pattern.HotspotNode(16, 16), 1)
	res, err := RunPacketPattern(flows, pattern.Injection{Proc: pattern.Bernoulli, Rate: 0.05},
		0.5, patternRC(sim.KernelEvent))
	if err != nil {
		t.Fatal(err)
	}
	if res.FlowsRequested != 16 || res.FlowsEstablished != 8 {
		t.Errorf("flows requested %d, established %d; want 16 and 8",
			res.FlowsRequested, res.FlowsEstablished)
	}
}

// TestPatternWarmupTruncatesLatency pins the projections' warm-up
// behavior: the latency distribution is truncated to the measurement
// window (word counts stay full-run), the effective warm-up is
// reported, and results stay identical across kernels.
func TestPatternWarmupTruncatesLatency(t *testing.T) {
	inj := pattern.Injection{Proc: pattern.Poisson, Rate: 0.1}
	for _, fabric := range []struct {
		name string
		run  func(rc RunConfig) (PatternRunResult, error)
	}{
		{"packet", func(rc RunConfig) (PatternRunResult, error) {
			return RunPacketPattern(testFlows(), inj, 0.5, rc)
		}},
		{"tdm", func(rc RunConfig) (PatternRunResult, error) {
			return RunTDMPattern(aethereal.DefaultParams(), testFlows(), inj, 0.5, rc)
		}},
	} {
		rc := patternRC(sim.KernelEvent)
		full, err := fabric.run(rc)
		if err != nil {
			t.Fatalf("%s full: %v", fabric.name, err)
		}
		rc.WarmupCycles = 800
		warm, err := fabric.run(rc)
		if err != nil {
			t.Fatalf("%s warm: %v", fabric.name, err)
		}
		if warm.WarmupCycles != 800 {
			t.Fatalf("%s: warm-up %d, want 800", fabric.name, warm.WarmupCycles)
		}
		if warm.Latency.N() >= full.Latency.N() || warm.Latency.N() == 0 {
			t.Fatalf("%s: truncated latency N = %d, full = %d",
				fabric.name, warm.Latency.N(), full.Latency.N())
		}
		if warm.WordsSent != full.WordsSent || warm.WordsDelivered != full.WordsDelivered {
			t.Fatalf("%s: projection counts must stay full-run", fabric.name)
		}
		// Identical across kernels, auto mode included.
		for _, auto := range []bool{false, true} {
			var base PatternRunResult
			for i, k := range []sim.Kernel{sim.KernelEvent, sim.KernelNaive, sim.KernelGated} {
				rc := patternRC(k)
				if auto {
					rc.WarmupAuto = true
				} else {
					rc.WarmupCycles = 800
				}
				got, err := fabric.run(rc)
				if err != nil {
					t.Fatalf("%s %v: %v", fabric.name, k, err)
				}
				if i == 0 {
					base = got
					continue
				}
				if got.WarmupCycles != base.WarmupCycles || !reflect.DeepEqual(got.Latency, base.Latency) {
					t.Fatalf("%s: kernel %v diverges under warm-up (auto=%v)", fabric.name, k, auto)
				}
			}
		}
	}
}

// TestRunConfigWarmupValidation pins the config errors.
func TestRunConfigWarmupValidation(t *testing.T) {
	rc := patternRC(sim.KernelEvent)
	rc.WarmupCycles = rc.Cycles
	if err := rc.Validate(); err == nil {
		t.Fatal("warm-up >= cycles should be rejected")
	}
	rc = patternRC(sim.KernelEvent)
	rc.WarmupCycles, rc.WarmupAuto = 5, true
	if err := rc.Validate(); err == nil {
		t.Fatal("explicit + auto warm-up should be rejected")
	}
}

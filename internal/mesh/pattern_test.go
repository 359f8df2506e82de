package mesh

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/pattern"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/stdcell"
)

func patternCfg(k sim.Kernel) PatternConfig {
	return PatternConfig{
		W: 4, H: 4, Cycles: 3000, FreqMHz: 25,
		Lib:       stdcell.Default013(),
		Spatial:   pattern.Spatial{Kind: pattern.Neighbour},
		Injection: pattern.Injection{Proc: pattern.Poisson, Rate: 0.02},
		FlipProb:  0.5, Seed: 11, Kernel: k,
	}
}

// fingerprint renders the parts of a result that must be byte-identical
// across kernels. stats.Series has unexported fields, so the latency
// distribution is compared through its summary.
func fingerprint(t *testing.T, r *PatternResult) string {
	t.Helper()
	b, err := json.Marshal(struct {
		Req, Est  int
		Sent, Del uint64
		LatN      int
		LatMean   float64
		LatMin    float64
		LatMax    float64
		Power     float64
		Util      float64
		Flows     []PatternFlow
	}{
		r.FlowsRequested, r.FlowsEstablished, r.WordsSent, r.WordsDelivered,
		r.Latency.N(), r.Latency.Mean(), r.Latency.Min(), r.Latency.Max(),
		r.Power.TotalUW(), r.LaneUtilization, r.Flows,
	})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestRunPatternKernelEquivalence(t *testing.T) {
	for _, sp := range []pattern.Spatial{
		{Kind: pattern.Neighbour},
		{Kind: pattern.Transpose},
		{Kind: pattern.Hotspot, Alpha: 0.5},
	} {
		cfg := patternCfg(sim.KernelNaive)
		cfg.Spatial = sp
		naive, err := RunPattern(cfg)
		if err != nil {
			t.Fatalf("%v naive: %v", sp, err)
		}
		cfg.Kernel = sim.KernelActive
		active, err := RunPattern(cfg)
		if err != nil {
			t.Fatalf("%v active: %v", sp, err)
		}
		if naive.WordsDelivered == 0 {
			t.Fatalf("%v: nothing delivered", sp)
		}
		if fn, fa := fingerprint(t, naive), fingerprint(t, active); fn != fa {
			t.Errorf("%v: naive vs active differ\n%s\n%s", sp, fn, fa)
		}
	}
}

func TestRunPatternDeterministicAcrossRuns(t *testing.T) {
	cfg := patternCfg(sim.KernelActive)
	a, err := RunPattern(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunPattern(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fingerprint(t, a) != fingerprint(t, b) {
		t.Error("same config, different results")
	}
	cfg.Seed = 12
	c, err := RunPattern(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fingerprint(t, a) == fingerprint(t, c) {
		t.Error("seed change did not change the run")
	}
}

func TestRunPatternHotspotBlocksFlows(t *testing.T) {
	// All-to-hotspot traffic cannot be admitted on a circuit fabric:
	// the hotspot tile has LanesPerPort output lanes, so only a handful
	// of flows establish. That is the expected admission-time answer.
	cfg := patternCfg(sim.KernelActive)
	cfg.Spatial = pattern.Spatial{Kind: pattern.Hotspot, Alpha: 1}
	r, err := RunPattern(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.FlowsEstablished >= r.FlowsRequested {
		t.Errorf("hotspot established %d of %d flows; expected blocking",
			r.FlowsEstablished, r.FlowsRequested)
	}
	if r.FlowsEstablished == 0 {
		t.Error("no flow established at all")
	}
}

func TestRunPatternNeighbourEstablishesAll(t *testing.T) {
	// One-hop neighbour flows never contend for more lanes than a port
	// has; every flow must establish.
	cfg := patternCfg(sim.KernelActive)
	cfg.Spatial = pattern.Spatial{Kind: pattern.Neighbour}
	r, err := RunPattern(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.FlowsEstablished != r.FlowsRequested {
		t.Errorf("neighbour established %d of %d flows", r.FlowsEstablished, r.FlowsRequested)
	}
	if r.Latency.N() == 0 {
		t.Error("no latency samples")
	}
}

func TestRunPatternSparseFastForwards(t *testing.T) {
	// Finite sparse flows retire; the kernel must fast-forward the
	// drained tail — the bulk of the run.
	cfg := patternCfg(sim.KernelActive)
	cfg.Injection = pattern.Injection{Proc: pattern.Bernoulli, Rate: 0.01}
	cfg.WordsPerFlow = 5
	cfg.Cycles = 100000
	var ffCycles uint64
	cfg.Observe = func(w *sim.World) { _, ffCycles = w.FastForwards() }
	r, err := RunPattern(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(16 * 5); r.WordsSent != want {
		t.Errorf("sent %d words, want %d", r.WordsSent, want)
	}
	if r.WordsDelivered != r.WordsSent {
		t.Errorf("delivered %d of %d", r.WordsDelivered, r.WordsSent)
	}
	if float64(ffCycles) < 0.9*float64(cfg.Cycles) {
		t.Errorf("fast-forwarded only %d of %d cycles", ffCycles, cfg.Cycles)
	}
}

// TestRunPatternWarmupExplicit pins the explicit measurement window:
// warm-up truncation drops the startup observations from the aggregate
// counts and latency distribution, reports the window, and stays
// byte-identical across kernels.
func TestRunPatternWarmupExplicit(t *testing.T) {
	full, err := RunPattern(patternCfg(sim.KernelActive))
	if err != nil {
		t.Fatal(err)
	}
	cfg := patternCfg(sim.KernelActive)
	cfg.Window.Warmup = 1000
	warm, err := RunPattern(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if warm.WarmupCycles != 1000 || warm.MeasuredCycles != 2000 {
		t.Fatalf("window = warmup %d / measured %d, want 1000/2000",
			warm.WarmupCycles, warm.MeasuredCycles)
	}
	if full.WarmupCycles != 0 || full.MeasuredCycles != 3000 {
		t.Fatalf("full-run window = %d/%d, want 0/3000", full.WarmupCycles, full.MeasuredCycles)
	}
	if warm.WordsSent >= full.WordsSent || warm.WordsDelivered >= full.WordsDelivered {
		t.Fatalf("truncated counts (%d/%d) should be below full-run (%d/%d)",
			warm.WordsSent, warm.WordsDelivered, full.WordsSent, full.WordsDelivered)
	}
	if warm.Latency.N() >= full.Latency.N() || warm.Latency.N() == 0 {
		t.Fatalf("truncated latency N = %d, full = %d", warm.Latency.N(), full.Latency.N())
	}
	// Per-flow counts stay full-run: their sum must match the
	// untruncated aggregate.
	var flowSent uint64
	for _, f := range warm.Flows {
		flowSent += f.WordsSent
	}
	if flowSent != full.WordsSent {
		t.Fatalf("per-flow sent sum %d, want full-run %d", flowSent, full.WordsSent)
	}

	// Kernel equivalence holds under truncation too.
	for _, k := range []sim.Kernel{sim.KernelNaive} {
		cfg := patternCfg(k)
		cfg.Window.Warmup = 1000
		other, err := RunPattern(cfg)
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if fingerprint(t, other) != fingerprint(t, warm) {
			t.Fatalf("kernel %v diverges under warm-up truncation", k)
		}
		if other.WarmupCycles != warm.WarmupCycles {
			t.Fatalf("kernel %v warm-up %d, want %d", k, other.WarmupCycles, warm.WarmupCycles)
		}
	}
}

// TestRunPatternWarmupAuto exercises MSER steady-state detection: the
// detected window is deterministic, within the run, and identical
// across kernels.
func TestRunPatternWarmupAuto(t *testing.T) {
	cfg := patternCfg(sim.KernelActive)
	cfg.Window.Auto = true
	first, err := RunPattern(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if first.WarmupCycles >= uint64(cfg.Cycles) {
		t.Fatalf("auto warm-up %d exceeds the run", first.WarmupCycles)
	}
	if first.MeasuredCycles != uint64(cfg.Cycles)-first.WarmupCycles {
		t.Fatalf("measured %d, want cycles-warmup", first.MeasuredCycles)
	}
	if first.Latency.N() == 0 {
		t.Fatal("auto warm-up truncated every observation")
	}
	for _, k := range []sim.Kernel{sim.KernelActive, sim.KernelNaive} {
		cfg := patternCfg(k)
		cfg.Window.Auto = true
		again, err := RunPattern(cfg)
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if again.WarmupCycles != first.WarmupCycles || fingerprint(t, again) != fingerprint(t, first) {
			t.Fatalf("auto warm-up not deterministic under kernel %v (%d vs %d)",
				k, again.WarmupCycles, first.WarmupCycles)
		}
	}
}

// TestPatternConfigWarmupValidation pins the config errors.
func TestPatternConfigWarmupValidation(t *testing.T) {
	cfg := patternCfg(sim.KernelActive)
	cfg.Window.Warmup = cfg.Cycles
	if _, err := RunPattern(cfg); err == nil {
		t.Fatal("warm-up >= cycles should be rejected")
	}
	cfg = patternCfg(sim.KernelActive)
	cfg.Window.Warmup = -1
	if _, err := RunPattern(cfg); err == nil {
		t.Fatal("negative warm-up should be rejected")
	}
	cfg = patternCfg(sim.KernelActive)
	cfg.Window = stats.Window{Warmup: 10, Auto: true}
	if _, err := RunPattern(cfg); err == nil {
		t.Fatal("explicit + auto warm-up should be rejected")
	}
}

// TestPatternConfigNonFiniteRejected: NaN and ±Inf in the frequency or
// the flip probability fail validation with the field named, instead of
// running into NaN power figures.
func TestPatternConfigNonFiniteRejected(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, c := range []struct {
			field string
			set   func(*PatternConfig)
		}{
			{"frequency", func(c *PatternConfig) { c.FreqMHz = v }},
			{"flip probability", func(c *PatternConfig) { c.FlipProb = v }},
		} {
			cfg := patternCfg(sim.KernelActive)
			c.set(&cfg)
			err := cfg.Validate()
			if err == nil || !strings.Contains(err.Error(), c.field) {
				t.Errorf("%s %v: Validate error %v does not name the field", c.field, v, err)
			}
		}
	}
}

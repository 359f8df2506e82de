package pattern

import (
	"testing"

	"repro/internal/sim"
)

// runSource drives one source for cycles under the kernel, recording the
// emission cycle of every accepted word. refuse makes Emit refuse its
// first n offers, exercising the backpressure retry path.
func runSource(t *testing.T, k sim.Kernel, inj Injection, limit uint64, cycles int, refuse int) []uint64 {
	t.Helper()
	w := sim.NewWorld(sim.WithKernel(k))
	var emitted []uint64
	src := NewSource(inj, 42, limit)
	src.Emit = func() bool {
		if refuse > 0 {
			refuse--
			return false
		}
		emitted = append(emitted, w.Cycle())
		return true
	}
	w.Add(src)
	w.Run(cycles)
	return emitted
}

func TestSourceKernelEquivalence(t *testing.T) {
	for _, inj := range []Injection{
		{Proc: CBR, Rate: 0.125},
		{Proc: Bernoulli, Rate: 0.03},
		{Proc: Poisson, Rate: 0.05},
		{Proc: OnOff, Rate: 0.08, Burstiness: 6},
	} {
		naive := runSource(t, sim.KernelNaive, inj, 0, 4000, 0)
		active := runSource(t, sim.KernelActive, inj, 0, 4000, 0)
		if len(naive) == 0 {
			t.Fatalf("%v: no emissions", inj)
		}
		if !equalU64(naive, active) {
			t.Errorf("%v: emission cycles differ across kernels\nnaive  %v\nactive %v",
				inj, head(naive), head(active))
		}
	}
}

func TestSourceBackpressureRetries(t *testing.T) {
	// The first three offers are refused; the word must be delivered on
	// the retry cycles immediately after, identically under all kernels.
	inj := Injection{Proc: CBR, Rate: 0.01}
	naive := runSource(t, sim.KernelNaive, inj, 0, 1000, 3)
	active := runSource(t, sim.KernelActive, inj, 0, 1000, 3)
	if !equalU64(naive, active) {
		t.Fatalf("backpressure cycles differ: naive %v active %v", naive, active)
	}
	// First arrival at cycle 100, refused for 3 cycles, accepted at 103.
	if naive[0] != 103 {
		t.Errorf("first accepted at %d, want 103", naive[0])
	}
}

func TestSourceRetiresAtLimit(t *testing.T) {
	w := sim.NewWorld()
	src := NewSource(Injection{Proc: CBR, Rate: 0.1}, 1, 5)
	src.Emit = func() bool { return true }
	w.Add(src)
	w.Run(100000)
	if src.Sent() != 5 || !src.Retired() {
		t.Fatalf("sent %d retired %v, want 5/true", src.Sent(), src.Retired())
	}
	// A retired source is permanently quiescent with no pending event,
	// so the world fast-forwards the drained tail in one window.
	if ff, cyc := w.FastForwards(); ff == 0 || cyc < 90000 {
		t.Errorf("fast-forward windows %d cycles %d; retired source blocked fast-forward", ff, cyc)
	}
}

func TestSourceFastForwardsBetweenArrivals(t *testing.T) {
	w := sim.NewWorld()
	src := NewSource(Injection{Proc: CBR, Rate: 0.001}, 1, 0)
	n := 0
	src.Emit = func() bool { n++; return true }
	w.Add(src)
	w.Run(50000)
	if n < 48 || n > 50 {
		t.Fatalf("emitted %d words, want ~50", n)
	}
	if _, cyc := w.FastForwards(); float64(cyc) < 0.9*50000 {
		t.Errorf("only %d of 50000 cycles fast-forwarded", cyc)
	}
}

func equalU64(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func head(s []uint64) []uint64 {
	if len(s) > 8 {
		return s[:8]
	}
	return s
}

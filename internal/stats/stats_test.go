package stats

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestSeriesBasics(t *testing.T) {
	var s Series
	for _, v := range []float64{1, 2, 3, 4, 5} {
		s.Add(v)
	}
	if s.N() != 5 || s.Mean() != 3 || s.Min() != 1 || s.Max() != 5 {
		t.Fatalf("series stats wrong: %s", s.String())
	}
	if math.Abs(s.Variance()-2) > 1e-9 {
		t.Fatalf("variance = %v, want 2", s.Variance())
	}
	if s.CI95() <= 0 {
		t.Fatal("CI should be positive for n>1")
	}
}

func TestSeriesEmpty(t *testing.T) {
	var s Series
	if s.Mean() != 0 || s.Variance() != 0 || s.CI95() != 0 {
		t.Fatal("empty series should be all zeros")
	}
}

// TestCI95EdgeCases pins the defined behavior of the confidence
// interval: n < 2 is exactly 0 (not NaN, not garbage — aggregated
// results must stay JSON-encodable), a zero-variance series is exactly
// 0, and small samples use the Student-t critical value, not the
// normal approximation.
func TestCI95EdgeCases(t *testing.T) {
	var one Series
	one.Add(42)
	if got := one.CI95(); got != 0 {
		t.Fatalf("CI95 with n=1 = %v, want exactly 0", got)
	}
	if got := one.SampleVariance(); got != 0 {
		t.Fatalf("SampleVariance with n=1 = %v, want exactly 0", got)
	}

	var flat Series
	for i := 0; i < 8; i++ {
		flat.Add(3.25)
	}
	if got := flat.CI95(); got != 0 {
		t.Fatalf("CI95 of zero-variance series = %v, want exactly 0", got)
	}
	if math.IsNaN(flat.CI95()) || math.IsInf(flat.CI95(), 0) {
		t.Fatal("CI95 must always be finite")
	}

	// Two observations: df=1, t = 12.706, s = |a-b|/sqrt(2).
	var two Series
	two.Add(1)
	two.Add(3)
	want := 12.706 * math.Sqrt2 / math.Sqrt2 // s = sqrt(2), /sqrt(n)=sqrt(2)
	if got := two.CI95(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("CI95 with n=2 = %v, want %v (Student-t, sample variance)", got, want)
	}

	// Large n falls back to the normal 1.96.
	var big Series
	for i := 0; i < 100; i++ {
		big.Add(float64(i % 2))
	}
	sd := big.SampleStdDev()
	want = 1.96 * sd / 10
	if got := big.CI95(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("CI95 with n=100 = %v, want %v", got, want)
	}
}

func TestMSER(t *testing.T) {
	// A constant series needs no truncation.
	flat := make([]float64, 50)
	for i := range flat {
		flat[i] = 7
	}
	if got := mser(flat, mserBatch); got != 0 {
		t.Fatalf("MSER of constant series = %d, want 0", got)
	}
	// An inflated head (startup transient) is truncated at a batch
	// boundary covering the transient.
	trans := make([]float64, 100)
	for i := range trans {
		if i < 20 {
			trans[i] = 100 - float64(i)*4 // decaying transient
		} else {
			trans[i] = 10 + float64(i%2) // noisy steady state
		}
	}
	got := mser(trans, mserBatch)
	if got < 15 || got > 50 {
		t.Fatalf("MSER truncation = %d, want the ~20-sample transient cut (and at most half)", got)
	}
	if got%mserBatch != 0 {
		t.Fatalf("MSER truncation %d not a batch multiple", got)
	}
	// Fewer than two batches: nothing to compare.
	if got := mser([]float64{1, 2, 3}, mserBatch); got != 0 {
		t.Fatalf("MSER of tiny series = %d, want 0", got)
	}
	// Truncation never exceeds half the batches.
	if got := mser(trans, mserBatch); got > len(trans)/2 {
		t.Fatalf("MSER truncated %d of %d samples", got, len(trans))
	}
}

func TestTimedSeries(t *testing.T) {
	var ts TimedSeries
	for i := 0; i < 10; i++ {
		ts.Add(uint64(i*10), float64(i))
	}
	if ts.Len() != 10 {
		t.Fatalf("Len = %d", ts.Len())
	}
	// An explicit warm-up keeps the observations from its cycle on.
	for _, c := range []struct {
		warmup uint64
		start  int
	}{{35, 4}, {0, 0}, {1000, 10}} {
		if w, start, s := ts.Window(c.warmup, false); w != c.warmup || start != c.start || s.N() != 10-c.start {
			t.Fatalf("Window(%d) = %d, %d, %s; want %d, %d", c.warmup, w, start, s.String(), c.warmup, c.start)
		}
	}
	if _, _, s := ts.Window(35, false); s.Min() != 4 || s.Max() != 9 || len(s.Samples()) != 6 {
		t.Fatalf("Window(35) summarizes %s", s.String())
	}
	// Auto-detection cuts at the MSER index, and the warm-up becomes the
	// cycle of the first kept observation.
	var trans TimedSeries
	for i := 0; i < 100; i++ {
		v := 10 + float64(i%2)
		if i < 20 {
			v = 100 - float64(i)
		}
		trans.Add(uint64(i*3), v)
	}
	w, start, s := trans.Window(0, true)
	if start == 0 || w != uint64(start*3) || s.N() != 100-start {
		t.Fatalf("auto Window = %d, %d, n=%d; want a transient cut at cycle 3*start", w, start, s.N())
	}
	// No observations: auto detection keeps the configured warm-up.
	var empty TimedSeries
	if w, start, s := empty.Window(0, true); w != 0 || start != 0 || s.N() != 0 {
		t.Fatalf("empty auto Window = %d, %d, n=%d", w, start, s.N())
	}
}

func TestCheckWarmup(t *testing.T) {
	for _, c := range []struct {
		warmup, cycles int
		auto           bool
		err            string
	}{
		{0, 1, false, ""},
		{0, 1, true, ""},
		{99, 100, false, ""},
		{-1, 100, false, "warm-up -1 out of [0, cycles=100)"},
		{100, 100, false, "warm-up 100 out of [0, cycles=100)"},
		{10, 100, true, "explicit warm-up and auto-detection are mutually exclusive"},
	} {
		err := CheckWarmup(c.warmup, c.cycles, c.auto)
		if got := fmt.Sprint(err); (c.err == "" && err != nil) || (c.err != "" && got != c.err) {
			t.Errorf("CheckWarmup(%d, %d, %v) = %v, want %q", c.warmup, c.cycles, c.auto, err, c.err)
		}
	}
}

func TestSeriesMeanBoundsProperty(t *testing.T) {
	f := func(vs []float64) bool {
		var s Series
		for _, v := range vs {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				return true // skip degenerate float inputs
			}
			s.Add(v)
		}
		if s.N() == 0 {
			return true
		}
		return s.Mean() >= s.Min()-1e-9 && s.Mean() <= s.Max()+1e-9 && s.Variance() >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHist(t *testing.T) {
	h := NewHist(10, 20, 30)
	for _, v := range []float64{5, 15, 15, 25, 99} {
		h.Add(v)
	}
	if h.N() != 5 {
		t.Fatalf("N = %d", h.N())
	}
	if h.Count(0) != 1 || h.Count(1) != 2 || h.Count(2) != 1 || h.Count(3) != 1 {
		t.Fatalf("bucket counts wrong: %s", h.String())
	}
	if q := h.Quantile(0.5); q != 20 {
		t.Fatalf("median bound = %v, want 20", q)
	}
	if q := h.Quantile(1.0); !math.IsInf(q, 1) {
		t.Fatalf("max quantile should hit overflow, got %v", q)
	}
	if !math.IsNaN(h.Quantile(0)) || !math.IsNaN(h.Quantile(1.5)) {
		t.Fatal("invalid quantile arguments should be NaN")
	}
}

func TestHistPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"no bounds": func() { NewHist() },
		"unsorted":  func() { NewHist(3, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestRate(t *testing.T) {
	// 400 words of 16 bits over 2000 cycles at 25 MHz: 80 Mbit/s — the
	// paper's per-stream figure.
	if got := Rate(400, 16, 2000, 25); math.Abs(got-80) > 1e-9 {
		t.Fatalf("rate = %v, want 80", got)
	}
	if Rate(1, 16, 0, 25) != 0 {
		t.Fatal("zero cycles should yield zero rate")
	}
}

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

// record feeds the recorder one observation per (cycle, value) pair.
func record(w Window, cycles []uint64, values []float64) *Recorder {
	r := NewRecorder(w)
	for i, c := range cycles {
		r.Add(c, values[i])
	}
	return r
}

func TestRecorder(t *testing.T) {
	var cycles []uint64
	var values []float64
	for i := 0; i < 10; i++ {
		cycles, values = append(cycles, uint64(i*10)), append(values, float64(i))
	}
	// An explicit warm-up keeps the observations from its cycle on.
	for _, c := range []struct {
		warmup, start int
	}{{35, 4}, {1000, 10}} {
		w, s := record(Window{Warmup: c.warmup}, cycles, values).Result()
		if w != uint64(c.warmup) || s.N() != 10-c.start {
			t.Fatalf("Warmup %d: Result = %d, %s; want %d, n=%d", c.warmup, w, s.String(), c.warmup, 10-c.start)
		}
	}
	if _, s := record(Window{Warmup: 35}, cycles, values).Result(); s.Min() != 4 || s.Max() != 9 || len(s.Samples()) != 6 {
		t.Fatalf("Warmup 35 summarizes %s with %d samples", s.String(), len(s.Samples()))
	}
	// No cut: warm-up 0 and every observation, retained only on request.
	for _, retain := range []bool{false, true} {
		w, s := record(Window{Retain: retain}, cycles, values).Result()
		if w != 0 || s.N() != 10 || s.Min() != 0 || s.Max() != 9 {
			t.Fatalf("Retain %v: Result = %d, %s", retain, w, s.String())
		}
		if got := s.Samples(); (got != nil) != retain || (retain && len(got) != 10) {
			t.Fatalf("Retain %v: Samples = %v", retain, got)
		}
	}
	// A cut window always retains, whatever Retain says.
	for _, w := range []Window{{Warmup: 1}, {Auto: true}} {
		if _, s := record(w, cycles, values).Result(); len(s.Samples()) != s.N() || s.N() == 0 {
			t.Fatalf("%+v: %d samples of n=%d", w, len(s.Samples()), s.N())
		}
	}
	// Auto-detection cuts at the MSER index, and the warm-up becomes the
	// cycle of the first kept observation.
	var tc []uint64
	var tv []float64
	for i := 0; i < 100; i++ {
		v := 10 + float64(i%2)
		if i < 20 {
			v = 100 - float64(i)
		}
		tc, tv = append(tc, uint64(i*3)), append(tv, v)
	}
	start := mser(tv, mserBatch)
	w, s := record(Window{Auto: true}, tc, tv).Result()
	if start == 0 || w != uint64(start*3) || s.N() != 100-start {
		t.Fatalf("auto Result = %d, n=%d; want a transient cut at cycle 3*%d", w, s.N(), start)
	}
	// No observations: auto detection keeps the configured warm-up.
	if w, s := NewRecorder(Window{Auto: true}).Result(); w != 0 || s.N() != 0 {
		t.Fatalf("empty auto Result = %d, n=%d", w, s.N())
	}
}

func TestWindowCheck(t *testing.T) {
	for _, c := range []struct {
		w      Window
		cycles int
		err    string
	}{
		{Window{}, 1, ""},
		{Window{Auto: true}, 1, ""},
		{Window{Warmup: 99, Retain: true}, 100, ""},
		{Window{Warmup: -1}, 100, "warm-up -1 out of [0, cycles=100)"},
		{Window{Warmup: 100}, 100, "warm-up 100 out of [0, cycles=100)"},
		{Window{Warmup: 10, Auto: true}, 100, "explicit warm-up and auto-detection are mutually exclusive"},
	} {
		err := c.w.Check(c.cycles)
		if got := fmt.Sprint(err); (c.err == "" && err != nil) || (c.err != "" && got != c.err) {
			t.Errorf("%+v.Check(%d) = %v, want %q", c.w, c.cycles, err, c.err)
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

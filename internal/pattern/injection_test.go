package pattern

import (
	"math"
	"strings"
	"testing"
)

// meanGap draws n gaps and returns their mean.
func meanGap(s *Sampler, n int) float64 {
	total := uint64(0)
	for i := 0; i < n; i++ {
		total += s.NextGap()
	}
	return float64(total) / float64(n)
}

func TestCBRGapsAreExact(t *testing.T) {
	// Rate 0.25: every 4th cycle, exactly.
	s := NewSampler(Injection{Proc: CBR, Rate: 0.25}, 1)
	for i := 0; i < 100; i++ {
		if g := s.NextGap(); g != 4 {
			t.Fatalf("gap %d = %d, want 4", i, g)
		}
	}
	// Rate 0.3: gaps of 3 and 4 averaging exactly 1/0.3 in the long run
	// (to within the 2^-32 fixed-point quantization).
	s = NewSampler(Injection{Proc: CBR, Rate: 0.3}, 1)
	if got, want := meanGap(s, 30000), 1/0.3; math.Abs(got-want) > 1e-3 {
		t.Errorf("CBR(0.3) mean gap %.5f, want %.5f", got, want)
	}
	// Rate 1: back to back.
	s = NewSampler(Injection{Proc: CBR, Rate: 1}, 1)
	for i := 0; i < 10; i++ {
		if g := s.NextGap(); g != 1 {
			t.Fatalf("rate-1 gap = %d", g)
		}
	}
}

func TestBernoulliGapMean(t *testing.T) {
	const p = 0.05
	s := NewSampler(Injection{Proc: Bernoulli, Rate: p}, 7)
	got := meanGap(s, 60000)
	if want := 1 / p; math.Abs(got-want)/want > 0.03 {
		t.Errorf("Bernoulli(%.2f) mean gap %.2f, want %.2f +-3%%", p, got, want)
	}
}

func TestPoissonGapMean(t *testing.T) {
	const lambda = 0.05
	s := NewSampler(Injection{Proc: Poisson, Rate: lambda}, 11)
	got := meanGap(s, 60000)
	// ceil(Exp(lambda)) is Geometric(1-e^-lambda): mean 1/(1-e^-lambda).
	want := 1 / (1 - math.Exp(-lambda))
	if math.Abs(got-want)/want > 0.03 {
		t.Errorf("Poisson(%.2f) mean gap %.2f, want %.2f +-3%%", lambda, got, want)
	}
	// The quantized mean stays within 3% of the continuous 1/lambda at
	// this sparse rate — the sanity bound a pattern run relies on.
	if cont := 1 / lambda; math.Abs(got-cont)/cont > 0.05 {
		t.Errorf("Poisson(%.2f) mean gap %.2f drifts >5%% from 1/lambda %.2f", lambda, got, cont)
	}
}

func TestOnOffLongRunRateAndBurstiness(t *testing.T) {
	const rate, burst = 0.1, 8.0
	s := NewSampler(Injection{Proc: OnOff, Rate: rate, Burstiness: burst}, 3)
	const n = 120000
	total := uint64(0)
	ones := 0
	for i := 0; i < n; i++ {
		g := s.NextGap()
		total += g
		if g == 1 {
			ones++
		}
	}
	got := float64(n) / float64(total)
	if math.Abs(got-rate)/rate > 0.05 {
		t.Errorf("on-off long-run rate %.4f, want %.4f +-5%%", got, rate)
	}
	// A mean burst of 8 words has 7 back-to-back follow-ups per burst:
	// the fraction of unit gaps must be well above a Bernoulli process
	// of the same rate.
	if frac := float64(ones) / n; frac < 0.5 {
		t.Errorf("on-off unit-gap fraction %.2f; traffic is not bursty", frac)
	}
}

func TestSamplerDeterminism(t *testing.T) {
	for _, inj := range []Injection{
		{Proc: CBR, Rate: 0.37},
		{Proc: Bernoulli, Rate: 0.2},
		{Proc: Poisson, Rate: 0.1},
		{Proc: OnOff, Rate: 0.1, Burstiness: 4},
	} {
		a, b := NewSampler(inj, 9), NewSampler(inj, 9)
		for i := 0; i < 1000; i++ {
			if ga, gb := a.NextGap(), b.NextGap(); ga != gb {
				t.Fatalf("%v: draw %d differs (%d vs %d)", inj, i, ga, gb)
			}
		}
	}
}

func TestParseInjection(t *testing.T) {
	cases := map[string]Injection{
		"poisson:0.05": {Proc: Poisson, Rate: 0.05},
		"cbr:0.5":      {Proc: CBR, Rate: 0.5},
		"bernoulli:1":  {Proc: Bernoulli, Rate: 1},
		"onoff:0.1:8":  {Proc: OnOff, Rate: 0.1, Burstiness: 8},
		"onoff:0.1":    {Proc: OnOff, Rate: 0.1, Burstiness: 4},
		"0.05":         {Proc: Poisson, Rate: 0.05},
	}
	for s, want := range cases {
		got, err := ParseInjection(s)
		if err != nil {
			t.Errorf("ParseInjection(%q): %v", s, err)
			continue
		}
		if got != want {
			t.Errorf("ParseInjection(%q) = %+v, want %+v", s, got, want)
		}
	}
	for _, bad := range []string{"", "poisson", "poisson:0", "poisson:2", "warp:0.1", "onoff:0.1:0.5", "cbr:0.1:3"} {
		if _, err := ParseInjection(bad); err == nil {
			t.Errorf("ParseInjection(%q) accepted", bad)
		}
	}
}

func TestInjectionValidate(t *testing.T) {
	if err := (Injection{Proc: Poisson, Rate: 0.5}).Validate(); err != nil {
		t.Error(err)
	}
	for _, bad := range []Injection{
		{Proc: Poisson, Rate: 0},
		{Proc: Poisson, Rate: 1.2},
		{Proc: OnOff, Rate: 0.5, Burstiness: 0.5},
		{Proc: CBR, Rate: 0.5, Burstiness: 2},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted", bad)
		}
	}
}

// TestNonFiniteParametersRejected: NaN fails every comparison, so a
// range check written as "reject if out of range" lets it through. Each
// parameter must reject NaN and both infinities, with an error naming
// the parameter.
func TestNonFiniteParametersRejected(t *testing.T) {
	parseSpatial := func(s string) error { _, err := ParseSpatial(s); return err }
	parseInjection := func(s string) error { _, err := ParseInjection(s); return err }
	for _, v := range []string{"nan", "NaN", "inf", "-inf"} {
		for _, c := range []struct {
			field, spec string
			parse       func(string) error
		}{
			{"hotspot fraction", "hotspot:" + v, parseSpatial},
			{"injection rate", "poisson:" + v, parseInjection},
			{"injection rate", "onoff:" + v + ":4", parseInjection},
			{"burstiness", "onoff:0.1:" + v, parseInjection},
		} {
			err := c.parse(c.spec)
			if err == nil {
				t.Errorf("%q accepted", c.spec)
			} else if !strings.Contains(err.Error(), c.field) {
				t.Errorf("%q: error %q does not name the %s", c.spec, err, c.field)
			}
		}
	}
}

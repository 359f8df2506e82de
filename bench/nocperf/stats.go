package main

import (
	"math"
	"sort"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count); NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles by the rule Python's
// statistics.quantiles(values, n=4) applies (the "exclusive" method), so
// spreads computed here match a Python check of the same values. With
// one sample both quartiles are that sample.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	switch len(s) {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	ld := len(s)
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// tailPercentile applies the reporting rule for a timing's tail: the
// highest percentile, in steps of ten above the median, that has at
// least ten samples beyond it. ok is false when no percentile above the
// median qualifies.
func tailPercentile(xs []float64) (pct int, v float64, ok bool) {
	n := len(xs)
	for p := 90; p > 50; p -= 10 {
		// Nearest rank: the sample at rank ceil(p·n/100) has n-rank
		// samples above it.
		rank := (p*n + 99) / 100
		if rank >= 1 && n-rank >= 10 {
			return p, sorted(xs)[rank-1], true
		}
	}
	return 0, 0, false
}

// Verdicts of a comparison between a base set of runs and a changed one.
const (
	verdictImproved   = "improved"
	verdictUnchanged  = "unchanged"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// comparison is one (workload, metric) row of -compare.
type comparison struct {
	BaseMed, BaseQ1, BaseQ3 float64
	NewMed, NewQ1, NewQ3    float64
	Pairs                   int
	WinFrac                 float64 // share of pairs the changed side won
	Verdict                 string
}

// compareRuns judges per-run values of a changed side against a base
// side. Pairs are formed in order; ties count for neither side. A gain
// needs nine tenths of the pairs won and a median gap wider than the
// base's interquartile range. A loss beyond the bound is worse; when the
// base's own spread is wider than the bound a loss cannot be told from
// noise and the row is unresolved, unless every changed run beats every
// base run.
func compareRuns(base, changed []float64, better string, bound float64) comparison {
	c := comparison{BaseMed: median(base), NewMed: median(changed)}
	c.BaseQ1, c.BaseQ3 = quartiles(base)
	c.NewQ1, c.NewQ3 = quartiles(changed)
	// gain is positive when the changed side is better.
	gain := func(b, n float64) float64 {
		if better == "higher" {
			return n - b
		}
		return b - n
	}
	c.Pairs = min(len(base), len(changed))
	wins := 0
	for i := 0; i < c.Pairs; i++ {
		if gain(base[i], changed[i]) > 0 {
			wins++
		}
	}
	if c.Pairs > 0 {
		c.WinFrac = float64(wins) / float64(c.Pairs)
	}
	allBetter := len(base) > 0 && len(changed) > 0
	for _, b := range base {
		for _, n := range changed {
			if gain(b, n) <= 0 {
				allBetter = false
			}
		}
	}
	g := gain(c.BaseMed, c.NewMed)
	iqr := c.BaseQ3 - c.BaseQ1
	switch {
	case c.Pairs > 0 && c.WinFrac >= 0.9 && g > iqr:
		c.Verdict = verdictImproved
	case allBetter:
		c.Verdict = verdictUnchanged
	case iqr > bound*math.Abs(c.BaseMed):
		c.Verdict = verdictUnresolved
	case -g > bound*math.Abs(c.BaseMed):
		c.Verdict = verdictWorse
	default:
		c.Verdict = verdictUnchanged
	}
	return c
}

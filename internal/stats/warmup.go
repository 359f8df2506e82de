package stats

import (
	"fmt"
	"sort"
)

// This file holds the warm-up (initial-transient) machinery of the
// replication subsystem: a cycle-stamped observation series and the
// MSER truncation rule that picks a steady-state measurement window, so
// confidence intervals over replicated open-loop runs are not biased by
// the empty-network startup transient.

// mserBatch is the conventional batch size of the MSER-5 rule.
const mserBatch = 5

// CheckWarmup validates a warm-up request for a run of the given length:
// an explicit warm-up lies in [0, cycles) and excludes automatic
// detection. Callers prefix the error with their own context.
func CheckWarmup(warmup, cycles int, auto bool) error {
	if warmup < 0 || warmup >= cycles {
		return fmt.Errorf("warm-up %d out of [0, cycles=%d)", warmup, cycles)
	}
	if warmup > 0 && auto {
		return fmt.Errorf("explicit warm-up and auto-detection are mutually exclusive")
	}
	return nil
}

// mser applies the Marginal Standard Error Rule to the observation
// sequence: it returns the truncation index d (a multiple of batch)
// that minimizes the marginal standard error of the mean of the
// remaining batch means,
//
//	MSER(d) = Var(batchMeans[d:]) / (nb - d),
//
// the standard steady-state detection rule for discrete-event
// simulation output (MSER-5 with batch = 5). The search is restricted
// to truncating at most half the batches — the usual guard against the
// statistic's instability on short tails — and ties pick the smallest
// truncation. Fewer than two full batches return 0 (nothing to
// compare), and the result is deterministic for a given sequence.
func mser(obs []float64, batch int) int {
	if batch < 1 {
		batch = 1
	}
	nb := len(obs) / batch
	if nb < 2 {
		return 0
	}
	means := make([]float64, nb)
	for i := range means {
		sum := 0.0
		for _, v := range obs[i*batch : (i+1)*batch] {
			sum += v
		}
		means[i] = sum / float64(batch)
	}
	best, bestD := 0.0, 0
	for d := 0; d <= nb/2; d++ {
		rest := means[d:]
		m := 0.0
		for _, v := range rest {
			m += v
		}
		m /= float64(len(rest))
		ss := 0.0
		for _, v := range rest {
			ss += (v - m) * (v - m)
		}
		stat := ss / float64(len(rest)*len(rest))
		if d == 0 || stat < best {
			best, bestD = stat, d
		}
	}
	return bestD * batch
}

// TimedSample is one observation stamped with the simulation cycle it
// was taken at.
type TimedSample struct {
	Cycle uint64
	Value float64
}

// TimedSeries accumulates cycle-stamped observations in simulation
// order. Cycles must be nondecreasing (the simulator appends samples as
// the clock advances); Window relies on that ordering.
type TimedSeries struct {
	samples []TimedSample
}

// Add records an observation taken at the given cycle.
func (t *TimedSeries) Add(cycle uint64, v float64) {
	t.samples = append(t.samples, TimedSample{Cycle: cycle, Value: v})
}

// Len returns the number of observations.
func (t *TimedSeries) Len() int { return len(t.samples) }

// Window cuts a run's warm-up off the observations. With auto set and
// at least one observation, the MSER-5 steady-state rule picks the cut
// and the warm-up becomes the cycle of the first kept observation;
// otherwise the window starts at the first observation taken at or
// after the given warm-up cycle. Window returns the effective warm-up
// cycle, the index of the first observation in the window (Len() if
// none) and the window summarized as a Series. The Series retains its
// samples (the timed series already holds them all, so the window stays
// poolable at no extra asymptotic cost).
func (t *TimedSeries) Window(warmup uint64, auto bool) (uint64, int, Series) {
	start := sort.Search(len(t.samples), func(i int) bool {
		return t.samples[i].Cycle >= warmup
	})
	if auto && len(t.samples) > 0 {
		vals := make([]float64, len(t.samples))
		for i, s := range t.samples {
			vals[i] = s.Value
		}
		start = mser(vals, mserBatch)
		warmup = t.samples[start].Cycle
	}
	var s Series
	s.Retain()
	for _, smp := range t.samples[start:] {
		s.Add(smp.Value)
	}
	return warmup, start, s
}

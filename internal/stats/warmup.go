package stats

import (
	"fmt"
	"sort"
)

// This file holds the latency measurement window of the replication
// subsystem: the request a run is given (warm-up cut, MSER truncation,
// sample retention) and the recorder every in-run latency sink feeds,
// so confidence intervals over replicated open-loop runs are not biased
// by the empty-network startup transient.

// mserBatch is the conventional batch size of the MSER-5 rule.
const mserBatch = 5

// Window is a run's latency measurement request.
type Window struct {
	// Warmup excludes observations taken before this cycle.
	Warmup int
	// Auto detects the warm-up with the MSER-5 steady-state rule over
	// the observation sequence. Mutually exclusive with Warmup.
	Auto bool
	// Retain keeps the raw observations on the measured Series
	// (Samples), so replicated runs can pool them into one
	// distribution. A window that cuts a warm-up always retains.
	Retain bool
}

// Cuts reports whether the window truncates a warm-up.
func (w Window) Cuts() bool { return w.Warmup > 0 || w.Auto }

// Check validates the window for a run of the given length: an explicit
// warm-up lies in [0, cycles) and excludes automatic detection. Callers
// prefix the error with their own context.
func (w Window) Check(cycles int) error {
	if w.Warmup < 0 || w.Warmup >= cycles {
		return fmt.Errorf("warm-up %d out of [0, cycles=%d)", w.Warmup, cycles)
	}
	if w.Warmup > 0 && w.Auto {
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

// Recorder measures one run's latency under a Window. Without a cut it
// keeps the running moments as observations arrive, retaining them only
// when the window asks; with a cut it stamps each observation with its
// cycle and cuts the warm-up off in Result.
type Recorder struct {
	w      Window
	series Series
	cycles []uint64 // with a cut: the cycle of each observation
	values []float64
}

// NewRecorder returns a recorder for the window.
func NewRecorder(w Window) *Recorder {
	r := &Recorder{w: w}
	if w.Retain {
		r.series.Retain()
	}
	return r
}

// Add records observation v taken at the given cycle. Cycles must be
// nondecreasing (sinks record as the clock advances); the cut relies on
// that order.
func (r *Recorder) Add(cycle uint64, v float64) {
	if r.w.Cuts() {
		r.cycles = append(r.cycles, cycle)
		r.values = append(r.values, v)
		return
	}
	r.series.Add(v)
}

// Result returns the effective warm-up cycle and the measured window as
// a Series. Without a cut the warm-up is 0 and the Series holds every
// observation. With Auto set and at least one observation, the MSER-5
// rule picks the cut and the warm-up becomes the cycle of the first
// kept observation; otherwise the window starts at the first
// observation taken at or after the configured warm-up. A cut window's
// Series retains its samples: the recorder already holds them all.
func (r *Recorder) Result() (uint64, Series) {
	if !r.w.Cuts() {
		return 0, r.series
	}
	warmup := uint64(r.w.Warmup)
	start := sort.Search(len(r.cycles), func(i int) bool { return r.cycles[i] >= warmup })
	if r.w.Auto && len(r.values) > 0 {
		start = mser(r.values, mserBatch)
		warmup = r.cycles[start]
	}
	var s Series
	s.Retain()
	for _, v := range r.values[start:] {
		s.Add(v)
	}
	return warmup, s
}

package pattern

import (
	"repro/internal/obs"
	"repro/internal/sim"
)

// Source is a traffic generator as a first-class quiescent component:
// it offers one word to its Emit callback at every arrival of its
// temporal process, retires after an optional word budget, and — unlike
// the every-cycle sim.Func drivers it replaces — tells the kernel when
// its next arrival is due, so a world of sparse sources fast-forwards
// between words under the production kernel. Between arrivals an idle
// source is skipped cycle by cycle, not parked: a Timed component never
// parks, since its NextEvent is read only in the sweep.
//
// Kernel equivalence holds by construction:
//
//   - The sampler draws once per arrival, never per cycle, so the
//     random sequence is the same whether or not idle cycles were
//     skipped.
//   - The local cycle counter advances in Commit and IdleWindow alike,
//     so it always equals the world clock.
//   - Quiescent is true exactly on the cycles Eval would do nothing:
//     no arrival due, nothing backlogged, or retired. A refused Emit
//     (backpressure) keeps the source active until the word is
//     accepted; arrivals falling due meanwhile accumulate as credits.
//   - NextEvent reports the next arrival, so the kernel never
//     fast-forwards past it (sim.Timed).
type Source struct {
	// Emit offers one word downstream; it returns false when the sink
	// cannot accept it this cycle, and the source retries next cycle.
	Emit func() bool

	// Tracer, when non-nil, receives a domain-scope inject event for
	// every accepted word and a flow-teardown event when the word budget
	// retires the source, on the Track name. Injection happens on the
	// same cycles under every kernel, so the stream is kernel-invariant.
	// The tracer may be shared with runs on other goroutines (a sweep's
	// cells), so it must accept concurrent calls.
	Tracer obs.Tracer
	// Track names this source's trace track (e.g. "flow3.src").
	Track string

	s       *Sampler
	limit   uint64 // emitted-word budget; 0 = unlimited
	sent    uint64
	cycle   uint64 // local clock, always equal to the world clock
	next    uint64 // absolute cycle of the next scheduled arrival
	credits uint64 // arrivals due but not yet accepted downstream
	retired bool
}

// NewSource returns a source driven by the injection process, seeded
// per flow. limit caps the emitted words (0 = unlimited); once spent the
// source retires and stays quiescent forever. Assign Emit before the
// first cycle.
func NewSource(inj Injection, seed uint64, limit uint64) *Source {
	src := &Source{s: NewSampler(inj, seed), limit: limit}
	src.next = src.s.NextGap()
	return src
}

// Sent returns the number of words accepted downstream.
func (s *Source) Sent() uint64 { return s.sent }

// Cycle returns the source's local clock, equal to the world clock; an
// Emit callback may use it to stamp the word being offered.
func (s *Source) Cycle() uint64 { return s.cycle }

// Retired reports whether the word budget is spent.
func (s *Source) Retired() bool { return s.retired }

// accrue collects arrivals that have fallen due, stopping at the word
// budget so a retired source never draws from its sampler again.
func (s *Source) accrue() {
	for !s.retired && s.cycle >= s.next {
		s.credits++
		if s.limit > 0 && s.sent+s.credits >= s.limit {
			// The final word is now pending; no further arrivals.
			s.retired = true
			if s.Tracer != nil {
				s.Tracer.Emit(obs.Event{Cycle: s.cycle, Track: s.Track,
					Kind: obs.KindFlowTeardown, Value: int64(s.limit)})
			}
			return
		}
		s.next += s.s.NextGap()
	}
}

// Eval implements sim.Clocked.
func (s *Source) Eval() {
	s.accrue()
	if s.credits > 0 && s.Emit() {
		s.credits--
		s.sent++
		if s.Tracer != nil {
			s.Tracer.Emit(obs.Event{Cycle: s.cycle, Track: s.Track,
				Kind: obs.KindInject, Value: int64(s.sent)})
		}
	}
}

// Commit implements sim.Clocked.
func (s *Source) Commit() { s.cycle++ }

// Quiescent implements sim.Quiescer: nothing due, nothing backlogged.
func (s *Source) Quiescent() bool {
	if s.credits > 0 {
		return false
	}
	if s.retired {
		return true
	}
	return s.cycle < s.next
}

// IdleWindow implements sim.Quiescer: the local clock tracks skipped
// cycles.
func (s *Source) IdleWindow(n uint64) { s.cycle += n }

// NextEvent implements sim.Timed: the next scheduled arrival ends the
// source's quiescence with no external stimulus, so the kernel must not
// fast-forward past it.
func (s *Source) NextEvent() (uint64, bool) {
	if s.retired {
		return 0, false
	}
	return s.next, true
}

var (
	_ sim.Clocked = (*Source)(nil)
	_ sim.Timed   = (*Source)(nil)
)

package sim

import (
	"math/bits"

	"repro/internal/obs"
)

// This file implements KernelActive, the production kernel.
//
// # Active and parked sets
//
// The world is split into an active set (polled and, unless quiescent,
// evaluated every cycle) and a parked set (not visited at all). There
// is one way in: a component implementing Sleeper parks on any cycle it
// was skipped with Asleep() true. Asleep certifies input-deafness — no
// register the component reads can end its quiescence, only its own
// staging mutators can — so the kernel needs no upstream set and the
// component's quiescence cannot end while it is out of the sweep. This
// is how mesh assemblies park: a dormant assembly (unconfigured
// crossbar, disabled converters) latches asleep and leaves the sweep,
// while a configured one is never parked and watches its neighbour
// wires every cycle. Every other component is never parked; a quiescent
// one is polled and skipped cycle by cycle, so the kernel is
// conservative by construction: implementing nothing costs only speed,
// never correctness.
//
// There is one way out: the wake closure every Waker receives, called
// by its staging mutators (Push/Inject/PushConfig/Pop). A wake during
// the Eval phase unparks at once; a wake between cycles is queued and
// unparks the component at the start of the next cycle. World.Add never
// registers a Timed component as a Sleeper: the kernel never reads a
// parked component's NextEvent.
//
// A parked component receives no per-cycle bookkeeping at all; the idle
// cycles it owes are replayed in one IdleWindow batch when it unparks
// (or when the world settles at a Run/Step boundary), exactly as
// fast-forward replays them. By the same fixed-point argument — a parked
// component's registers cannot change, and nothing it reads can end its
// quiescence — the replay is exact and results stay byte-identical to
// the naive kernel.
//
// # One pass in registration order
//
// Each cycle the kernel walks the active set once, in registration
// order, and at every component polls Quiescent and, unless quiescent,
// runs its Eval at once. A component is therefore polled after every
// earlier component's Eval, so an earlier Eval may stage work into a
// later component without waking it: the poll observes the staged work
// (TestEarlierEvalStagesIntoLaterComponent pins this). A wake
// into a slot the sweep has already passed runs the missed Eval inline;
// a wake that unparks a component ahead of the sweep just returns it to
// the active set, where the sweep polls it in order. The Commit pass
// then walks the same set, committing evaluated components and replaying
// IdleWindow(1) on skipped ones.
//
// The active set is a bitset in registration order: park clears a bit,
// unpark sets one. The sweep walks registration indices and, while
// anything is parked, skips parked ones by reading the bitset afresh, so
// a component unparked ahead of the sweep joins it in the same cycle.
// Park and unpark are O(1), nothing is sorted or allocated per cycle, a
// mostly parked world costs about one word read per 64 components, and a
// world with nothing parked walks its components like the naive kernel.
//
// An earlier design polled the whole active list before running any
// Eval, so that the Eval pass could shard across goroutines. A
// component polled before an earlier Eval staged work into it then saw
// that work a cycle late, and the shards engaged only above 256 active components — on a dense
// 16×16 mesh, which they slowed; on the sparse hotspot meshes about 106
// components stay active and they never engaged. Both went with the
// one-pass sweep.

// Parked returns the number of currently parked components. Under
// KernelNaive it is always zero.
func (w *World) Parked() int { return w.parkedCount }

// Activations returns how many times a parked component was returned to
// the active set — the unpark count, the activity churn the parking
// heuristics are judged by.
func (w *World) Activations() uint64 { return w.activations }

// isParked reports whether component i is outside the active set.
func (w *World) isParked(i int) bool { return w.live[i>>6]&(1<<(i&63)) == 0 }

// parkedPendingSkips returns the skipped cycles currently deferred on
// parked components — the correction Skips applies so it reads the same
// at any time, even mid-run.
func (w *World) parkedPendingSkips() uint64 {
	if w.parkedCount == 0 {
		return 0
	}
	return uint64(w.parkedCount)*w.cycle - w.sumParkedAt
}

// park removes component i from the active set, starting with the next
// cycle. Called from the Commit pass after i was skipped; the current
// cycle's bookkeeping has already been done the normal way.
func (w *World) park(i int) {
	w.live[i>>6] &^= 1 << (i & 63)
	w.parkedAt[i] = w.cycle + 1
	w.parkedCount++
	w.sumParkedAt += w.parkedAt[i]
	if w.tracer != nil {
		w.emit(i, obs.KindPark, 0)
	}
}

// settleParked replays the idle cycles component i owes up to the
// current cycle: the deferred skip count and one IdleWindow batch. The
// component stays parked; unparking is the caller's business.
func (w *World) settleParked(i int) {
	owed := w.cycle - w.parkedAt[i]
	if owed == 0 {
		return
	}
	w.skips += owed
	w.sumParkedAt += owed
	w.parkedAt[i] = w.cycle
	w.quiescers[i].IdleWindow(owed)
}

// unpark settles component i's deferred bookkeeping and returns it to
// the active set.
func (w *World) unpark(i int) {
	if w.tracer != nil {
		w.emit(i, obs.KindUnpark, int64(w.cycle-w.parkedAt[i]))
	}
	w.settleParked(i)
	w.live[i>>6] |= 1 << (i & 63)
	w.parkedCount--
	w.sumParkedAt -= w.parkedAt[i]
	w.activations++
}

// flushParked settles every parked component's deferred bookkeeping
// without unparking it, so all externally visible state — power meters,
// cycle counters, activity statistics — reads exactly as under the
// naive kernel. Called at every public Step and at Run return while
// anything is parked.
func (w *World) flushParked() {
	n := len(w.components)
	for wi, word := range w.live {
		parked := ^word
		if rest := n - wi<<6; rest < 64 {
			parked &= 1<<rest - 1
		}
		for ; parked != 0; parked &= parked - 1 {
			w.settleParked(wi<<6 | bits.TrailingZeros64(parked))
		}
	}
}

// unparkPending returns to the active set the components woken between
// cycles, before the cycle's sweep polls them.
func (w *World) unparkPending() {
	for _, i := range w.pending {
		if w.isParked(i) {
			w.unpark(i)
		}
	}
	w.pending = w.pending[:0]
}

// wake is the Eval-phase half of the wake closure. A target whose slot
// the sweep has already passed runs its missed Eval inline (unparking
// it first if it was parked); a parked target ahead of the sweep returns
// to the active set and is polled in its slot, where the staged work
// makes it non-quiescent; an active target ahead of the sweep needs
// nothing. Either way the target commits this cycle, exactly as under
// the naive kernel.
func (w *World) wake(i int) {
	if w.isParked(i) {
		w.unpark(i)
		if i > w.evalPos {
			return
		}
	} else if i > w.evalPos || !w.skipped[i] {
		return
	}
	w.skipped[i] = false
	if w.tracer != nil {
		w.emit(i, obs.KindWake, 0)
	}
	w.components[i].Eval()
}

// horizon returns the cycle up to which the world may fast-forward after
// a fully quiescent step: the earliest NextEvent of an active Timed
// component, or the end of the Run window, whichever comes first. Parked
// components have no self-scheduled events (a Timed component never
// parks), so the walk covers the active set only. It never returns less
// than the current cycle.
func (w *World) horizon(end uint64) uint64 {
	h := end
	for wi, word := range w.live {
		for ; word != 0; word &= word - 1 {
			if td := w.timed[wi<<6|bits.TrailingZeros64(word)]; td != nil {
				if c, ok := td.NextEvent(); ok && c < h {
					h = c
				}
			}
		}
	}
	if h < w.cycle {
		h = w.cycle
	}
	return h
}

// stepActive advances a KernelActive world by one cycle: one poll-and-
// Eval pass over the active set in registration order, then one Commit
// pass over the same set that replays idle bookkeeping and parks asleep
// Sleepers. Both passes walk the registration indices and consult the
// bitset only while something is parked, so a world with nothing parked
// pays nothing for it.
func (w *World) stepActive() {
	if len(w.pending) > 0 {
		w.unparkPending()
	}
	n0 := len(w.components) // components Added mid-cycle join next cycle

	w.inEval = true
	for i := 0; i < n0; i++ {
		if w.parkedCount > 0 && w.isParked(i) {
			if i = w.nextLive(i, n0); i >= n0 {
				break
			}
		}
		w.evalPos = i
		if q := w.quiescers[i]; q != nil {
			w.polls++
			if q.Quiescent() {
				w.skipped[i] = true
				continue
			}
		}
		w.skipped[i] = false
		w.components[i].Eval()
	}
	w.inEval = false

	all := n0 > 0
	for i := 0; i < n0; i++ {
		if w.parkedCount > 0 && w.isParked(i) {
			if i = w.nextLive(i, n0); i >= n0 {
				break
			}
		}
		if !w.skipped[i] {
			all = false
			w.evals++
			if w.tracer != nil {
				w.emit(i, obs.KindEval, 0)
			}
			w.components[i].Commit()
			continue
		}
		w.skips++
		w.quiescers[i].IdleWindow(1)
		if s := w.sleepers[i]; s != nil && s.Asleep() {
			w.park(i)
		}
	}
	if len(w.components) != n0 {
		all = false // a mid-cycle Add must be polled before fast-forward
	}
	w.allSkipped = all
	w.cycle++
}

// nextLive returns the first unparked component at or after i (possibly
// one Added past n0 this cycle), or n0 when there is none before n0. It
// reads the bitset afresh, so a component a wake has just unparked ahead
// of the Eval sweep is found and polled in its slot.
func (w *World) nextLive(i, n0 int) int {
	for i < n0 {
		if rest := w.live[i>>6] >> (i & 63); rest != 0 {
			return i + bits.TrailingZeros64(rest)
		}
		i = i&^63 + 64
	}
	return n0
}

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
// evaluated every cycle) and a parked set (not visited at all). A
// component may be parked only when it is provably inert until an
// external stimulus:
//
//   - it was quiescent this cycle, and
//   - it is parkable: its complete set of upstream signal drivers was
//     declared with DependsOn, so the kernel knows every way its
//     quiescence can end — an upstream component committing (its
//     registered outputs change), one of its own staging mutators being
//     invoked (which calls the wake function every Waker already
//     receives), a pending WakeAt timer firing, or its own self-scheduled
//     NextEvent cycle arriving (sim.Timed).
//
// There is a second, declaration-free route into the parked set: a
// component implementing Sleeper parks on any cycle Asleep() is true.
// Asleep certifies input-deafness — no register the component reads can
// end its quiescence, only its own staging mutators can — so the kernel
// needs no upstream set at all and sends it no commit notifications;
// the wake closure is its sole re-activation channel. This is how mesh
// assemblies park: a dormant assembly (unconfigured crossbar, disabled
// converters) latches asleep and leaves the sweep, while a configured
// one is never parked and watches its neighbour wires every cycle.
// Declaring neighbour links with DependsOn instead would be sound but
// slow: every commit of a streaming assembly would wake its parked
// neighbours into a poll/re-park churn.
//
// Components with neither a DependsOn declaration nor a Sleeper
// implementation are never parked and are polled every cycle, so the
// kernel is conservative by construction: declaring nothing costs only
// speed, never correctness.
//
// Parked components are re-activated through exactly the channels above:
//
//   - a wake call (staged mutators Push/Inject/PushConfig/Pop) unparks at
//     once when it arrives during the Eval phase, and is queued for the
//     next cycle when it arrives between cycles;
//   - a committing component unparks its parked declared dependents for
//     the next cycle — the earliest cycle on which the commit's register
//     changes are visible to their Quiescent polls — and keeps a
//     dependent that is still active this cycle from parking at all;
//   - a WakeAt timer coming due unparks every parked component (timers
//     are world-global and rare; one conservative full poll per timer
//     keeps them exact);
//   - a parked Timed component's NextEvent, cached at park time, unparks
//     it when the clock reaches it. While parked the component's state
//     is frozen, so the cached value stays valid.
//
// A parked component receives no per-cycle bookkeeping at all; the idle
// cycles it owes are replayed in one IdleWindow batch when it unparks
// (or when the world settles at a Run/Step boundary), exactly as
// fast-forward replays them. By the same fixed-point argument — a parked
// component's registers cannot change, and nothing it reads changes
// while every declared upstream is parked or quiescent — the replay is
// exact and results stay byte-identical to the naive kernel.
//
// # One pass in registration order
//
// Each cycle the kernel walks the active set once, in registration
// order, and at every component polls Quiescent and, unless quiescent,
// runs its Eval at once. A component is therefore polled after every
// earlier component's Eval, so an earlier Eval may stage work into a
// later component without waking it: the poll observes the staged work.
// The best-effort network relies on this — its burst scheduler, first
// in the world, releases messages into the injection queues its per-node
// pumps (Quiescers, not Wakers) poll later in the same cycle. A wake
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
// Eval, so that the Eval pass could shard across goroutines. Polling
// every component before the scheduler's Eval made the pumps miss a
// release and delivered the first scheduled burst one cycle late, and
// the shards engaged only above 256 active components — on a dense
// 16×16 mesh, which they slowed; on the sparse hotspot meshes about 106
// components stay active and they never engaged. Both went with the
// one-pass sweep.

// DependsOn declares component c's complete upstream set: the
// components whose Commit can change a signal c reads. The declaration
// makes c parkable — on any cycle c is quiescent it leaves the per-cycle
// sweep entirely, and it is woken by its staging mutators, by a pending
// timer, by its own NextEvent, or by any declared upstream committing.
// The declaration is a contract: an undeclared upstream whose commit can
// end c's quiescence would desync c, exactly like a Quiescent that
// ignores staged work. Components never passed to DependsOn are never
// parked (unless they are asleep Sleepers). All components involved must
// already be registered with Add.
func (w *World) DependsOn(c Clocked, upstreams ...Clocked) {
	ci := w.mustIndexOf(c)
	w.deps[ci] |= depParkable
	for _, u := range upstreams {
		ui := w.mustIndexOf(u)
		w.downstream[ui] = append(w.downstream[ui], ci)
		w.deps[ui] |= depNotifies
	}
}

// Per-component parking flags, one byte the Commit pass tests before
// touching the dependent lists or the Sleeper interface.
const (
	depParkable uint8 = 1 << iota // declared its upstream set (DependsOn)
	depNotifies                   // is a declared upstream of some component
	depSleeper                    // implements Sleeper
)

// mustIndexOf resolves a registered component's index.
func (w *World) mustIndexOf(c Clocked) int {
	if i, ok := w.index[c]; ok {
		return i
	}
	panic("sim: DependsOn on a component not registered with Add")
}

// Parked returns the number of currently parked components. Under
// KernelNaive it is always zero.
func (w *World) Parked() int { return w.parkedCount }

// Activations returns how many times a parked component was returned to
// the active set — the unpark count, the activity churn the parking
// heuristics are judged by.
func (w *World) Activations() uint64 { return w.activations }

// isParked reports whether component i is outside the active set.
func (w *World) isParked(i int) bool { return w.live[i>>6]&(1<<(i&63)) == 0 }

// eventEntry is one cached NextEvent of a parked Timed component.
type eventEntry struct {
	cycle uint64
	idx   int
}

// eventHeap is a binary min-heap of cached NextEvent cycles, ordered by
// cycle then registration index so ties unpark in registration order.
type eventHeap struct {
	heap []eventEntry
}

func (h *eventHeap) less(a, b eventEntry) bool {
	return a.cycle < b.cycle || (a.cycle == b.cycle && a.idx < b.idx)
}

func (h *eventHeap) push(e eventEntry) {
	h.heap = append(h.heap, e)
	i := len(h.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(h.heap[i], h.heap[parent]) {
			break
		}
		h.heap[parent], h.heap[i] = h.heap[i], h.heap[parent]
		i = parent
	}
}

func (h *eventHeap) peek() (eventEntry, bool) {
	if len(h.heap) == 0 {
		return eventEntry{}, false
	}
	return h.heap[0], true
}

func (h *eventHeap) pop() {
	n := len(h.heap) - 1
	h.heap[0] = h.heap[n]
	h.heap = h.heap[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && h.less(h.heap[l], h.heap[small]) {
			small = l
		}
		if r < n && h.less(h.heap[r], h.heap[small]) {
			small = r
		}
		if small == i {
			return
		}
		h.heap[i], h.heap[small] = h.heap[small], h.heap[i]
		i = small
	}
}

// parkedPendingSkips returns the skipped cycles currently deferred on
// parked components — the correction the counter accessors apply so
// Skips and ComponentActivity read the same at any time, even mid-run.
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
	if td := w.timed[i]; td != nil {
		// Cache the component's self-scheduled horizon; its state is
		// frozen while parked, so the value cannot drift (the parking
		// contract). A stale entry left by an earlier wake-unpark is
		// harmless: it triggers one spurious poll.
		if c, ok := td.NextEvent(); ok {
			w.events.push(eventEntry{cycle: c, idx: i})
		}
	}
}

// settleParked replays the idle cycles component i owes up to the
// current cycle: the deferred skip counters and one IdleWindow batch.
// The component stays parked; unparking is the caller's business.
func (w *World) settleParked(i int) {
	owed := w.cycle - w.parkedAt[i]
	if owed == 0 {
		return
	}
	w.skips += owed
	w.skipsBy[i] += owed
	w.sumParkedAt += owed
	w.parkedAt[i] = w.cycle
	if iw := w.windowers[i]; iw != nil {
		iw.IdleWindow(owed)
	}
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

// beginCycle returns to the active set everything due this cycle:
// queued unpark requests (dependents of last cycle's commits,
// between-cycle wakes), cached NextEvent cycles that have come due, and —
// conservatively — everything when a WakeAt timer fires.
func (w *World) beginCycle() {
	if len(w.pending) > 0 {
		for _, i := range w.pending {
			if w.isParked(i) {
				w.unpark(i)
			}
		}
		w.pending = w.pending[:0]
	}
	for len(w.events.heap) > 0 && w.events.heap[0].cycle <= w.cycle {
		i := w.events.heap[0].idx
		w.events.pop()
		if w.isParked(i) {
			w.unpark(i)
		}
	}
	if len(w.timers.heap) > 0 && w.timers.heap[0] <= w.cycle {
		w.dropSpentTimers()
		if t, ok := w.timers.peek(); ok && t == w.cycle && w.parkedCount > 0 {
			// A timer fires this cycle: some driver staged work for it,
			// and that work may concern any component. Poll everything
			// once.
			for i := range w.components {
				if w.isParked(i) {
					w.unpark(i)
				}
			}
		}
	}
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
// a fully quiescent step: the earliest pending timer, the earliest cached
// NextEvent of a parked component, the earliest live NextEvent of an
// active one, or the end of the Run window, whichever comes first. It
// never returns less than the current cycle, and once everything is
// parked it costs O(1) plus one word read per 64 components.
func (w *World) horizon(end uint64) uint64 {
	h := end
	w.dropSpentTimers()
	if t, ok := w.timers.peek(); ok && t < h {
		h = t
	}
	if e, ok := w.events.peek(); ok && e.cycle < h {
		h = e.cycle
	}
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
// pass over the same set that replays idle bookkeeping, takes the park
// decisions and notifies declared dependents. Both passes walk the
// registration indices and consult the bitset only while something is
// parked, so a world with nothing parked pays nothing for it.
func (w *World) stepActive() {
	if len(w.pending) > 0 || len(w.events.heap) > 0 || len(w.timers.heap) > 0 {
		w.beginCycle()
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
	next := w.cycle + 1
	for i := 0; i < n0; i++ {
		if w.parkedCount > 0 && w.isParked(i) {
			if i = w.nextLive(i, n0); i >= n0 {
				break
			}
		}
		if !w.skipped[i] {
			all = false
			w.evals++
			w.evalsBy[i]++
			if w.tracer != nil {
				w.emit(i, obs.KindEval, 0)
			}
			w.components[i].Commit()
			if w.deps[i]&depNotifies != 0 {
				w.notify(i, next)
			}
			continue
		}
		w.skips++
		w.skipsBy[i]++
		if iw := w.windowers[i]; iw != nil {
			iw.IdleWindow(1)
		}
		if f := w.deps[i]; f&depParkable != 0 && w.fedAt[i] != next ||
			f&depSleeper != 0 && w.sleepers[i].Asleep() {
			w.park(i)
		}
	}
	if len(w.components) != n0 {
		all = false // a mid-cycle Add must be polled before fast-forward
	}
	w.allSkipped = all
	w.cycle = next
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

// notify tells component i's declared dependents that it committed: a
// parked one unparks next cycle, when the new register values are first
// visible to its poll; an active one is stamped so it does not park this
// cycle only to be unparked at the start of the next.
func (w *World) notify(i int, next uint64) {
	for _, d := range w.downstream[i] {
		if w.isParked(d) {
			w.pending = append(w.pending, d)
		} else {
			w.fedAt[d] = next
		}
	}
}

package sim

import (
	"fmt"
	"math/bits"

	"repro/internal/obs"
)

// timerWheel holds the pending WakeAt cycles of a world as a binary
// min-heap. The wheel only bounds fast-forward windows, so duplicate
// entries are harmless (they pop together) and spent entries are dropped
// lazily.
type timerWheel struct {
	heap []uint64
}

// push inserts a timer cycle.
func (t *timerWheel) push(c uint64) {
	t.heap = append(t.heap, c)
	i := len(t.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if t.heap[parent] <= t.heap[i] {
			break
		}
		t.heap[parent], t.heap[i] = t.heap[i], t.heap[parent]
		i = parent
	}
}

// peek returns the earliest pending timer.
func (t *timerWheel) peek() (uint64, bool) {
	if len(t.heap) == 0 {
		return 0, false
	}
	return t.heap[0], true
}

// pop removes the earliest pending timer.
func (t *timerWheel) pop() {
	n := len(t.heap) - 1
	t.heap[0] = t.heap[n]
	t.heap = t.heap[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && t.heap[l] < t.heap[small] {
			small = l
		}
		if r < n && t.heap[r] < t.heap[small] {
			small = r
		}
		if small == i {
			return
		}
		t.heap[i], t.heap[small] = t.heap[small], t.heap[i]
		i = small
	}
}

// WakeAt schedules a timer at the given absolute cycle: the kernel will
// not fast-forward past it, and it unparks every parked component for one
// poll when it fires, so a driver that stages work for that cycle (a
// scheduled configuration burst, a timeout) is guaranteed the cycle
// executes as a normal step. A timer at the current cycle is legal and
// spent immediately; a timer in the past is a programming error.
// Duplicate timers are allowed and coalesce. The naive kernel executes
// every cycle anyway, so for it WakeAt is bookkeeping only — behaviour is
// byte-identical across kernels with or without timers.
func (w *World) WakeAt(cycle uint64) error {
	if cycle < w.cycle {
		return fmt.Errorf("sim: WakeAt(%d) is in the past (cycle %d)", cycle, w.cycle)
	}
	w.timers.push(cycle)
	if w.tracer != nil {
		w.tracer.Emit(obs.Event{Cycle: w.cycle, Scope: obs.ScopeKernel,
			Track: kernelTrack, Kind: obs.KindTimer, Value: int64(cycle)})
	}
	return nil
}

// PendingTimers returns the number of timers at or after the current
// cycle. Spent timers are discarded first, so the count is exact.
func (w *World) PendingTimers() int {
	w.dropSpentTimers()
	return len(w.timers.heap)
}

// dropSpentTimers removes timers before the current cycle; they can no
// longer bound a fast-forward window.
func (w *World) dropSpentTimers() {
	for {
		t, ok := w.timers.peek()
		if !ok || t >= w.cycle {
			return
		}
		w.timers.pop()
	}
}

// fastForward advances the world by n fully quiescent cycles in one step:
// every active component receives its idle bookkeeping as one IdleWindow
// batch, and the skip counters advance as if each cycle had been stepped
// individually. The caller (Run) has established that every component was
// quiescent and that no timer or self-scheduled event lies inside the
// window, so by the fixed-point argument in the package comment the
// replay is exact. A parked component's deferred window simply grows; its
// bookkeeping is settled in one batch at unpark or flush.
func (w *World) fastForward(n uint64) {
	if w.tracer != nil {
		w.tracer.Emit(obs.Event{Cycle: w.cycle, Scope: obs.ScopeKernel,
			Track: kernelTrack, Kind: obs.KindFastForward, Value: int64(n)})
	}
	for wi, word := range w.live {
		for ; word != 0; word &= word - 1 {
			i := wi<<6 | bits.TrailingZeros64(word)
			w.skipsBy[i] += n
			if iw := w.windowers[i]; iw != nil {
				iw.IdleWindow(n)
			}
		}
	}
	w.skips += n * uint64(len(w.components)-w.parkedCount)
	w.cycle += n
	w.ffWindows++
	w.ffCycles += n
}

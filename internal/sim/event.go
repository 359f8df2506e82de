package sim

import (
	"math/bits"

	"repro/internal/obs"
)

// fastForward advances the world by n fully quiescent cycles in one step:
// every active component receives its idle bookkeeping as one IdleWindow
// batch, and the skip counter advances as if each cycle had been stepped
// individually. The caller (Run) has established that every active
// component was skipped, so each is a Quiescer, and that no
// self-scheduled event lies inside the window, so by the fixed-point
// argument in the package comment the replay is exact. A parked
// component's deferred window simply grows; its bookkeeping is settled
// in one batch at unpark or flush.
func (w *World) fastForward(n uint64) {
	if w.tracer != nil {
		w.tracer.Emit(obs.Event{Cycle: w.cycle, Scope: obs.ScopeKernel,
			Track: kernelTrack, Kind: obs.KindFastForward, Value: int64(n)})
	}
	for wi, word := range w.live {
		for ; word != 0; word &= word - 1 {
			w.quiescers[wi<<6|bits.TrailingZeros64(word)].IdleWindow(n)
		}
	}
	w.skips += n * uint64(len(w.components)-w.parkedCount)
	w.cycle += n
	w.ffWindows++
	w.ffCycles += n
}

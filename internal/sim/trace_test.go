package sim_test

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

// pulser is quiescent except on multiples of period, when it bumps a
// counter; it exposes the full idle-bookkeeping surface so every kernel
// schedules it exactly.
type pulser struct {
	period uint64
	cycle  uint64
	n      uint64
}

func (p *pulser) Eval()   {}
func (p *pulser) Commit() { p.n++; p.cycle++ }
func (p *pulser) Quiescent() bool {
	return (p.cycle+1)%p.period != 0
}
func (p *pulser) IdleWindow(n uint64) { p.cycle += n }
func (p *pulser) TraceName() string   { return "pulser" }
func (p *pulser) NextEvent() (uint64, bool) {
	next := ((p.cycle / p.period) + 1) * p.period
	return next - 1, true
}

// TestTracerKernelEvents checks the kernel emits cycle-stamped eval and
// fast-forward events and that an attached tracer does not change the
// simulated outcome.
func TestTracerKernelEvents(t *testing.T) {
	for _, k := range []sim.Kernel{sim.KernelNaive, sim.KernelActive} {
		t.Run(k.String(), func(t *testing.T) {
			run := func(tr obs.Tracer) *pulser {
				p := &pulser{period: 8}
				opts := []sim.WorldOption{sim.WithKernel(k)}
				if tr != nil {
					opts = append(opts, sim.WithTracer(tr))
				}
				w := sim.NewWorld(opts...)
				w.Add(p)
				w.Run(32)
				return p
			}
			plain := run(nil)
			c := obs.NewCollector()
			traced := run(c)
			if plain.n != traced.n || plain.cycle != traced.cycle {
				t.Fatalf("tracer changed the run: plain %+v traced %+v", plain, traced)
			}

			evalCycles := map[uint64]bool{}
			for _, e := range c.Events() {
				if e.Scope != obs.ScopeKernel {
					t.Fatalf("unexpected scope in kernel trace: %+v", e)
				}
				if e.Kind == obs.KindEval {
					if e.Track != "pulser" {
						t.Fatalf("TraceNamer not honoured: %+v", e)
					}
					evalCycles[e.Cycle] = true
				}
			}
			// The pulser works on cycles 7, 15, 23, 31 under every kernel.
			for _, want := range []uint64{7, 15, 23, 31} {
				if !evalCycles[want] {
					t.Fatalf("kernel %v: no eval event at cycle %d (got %v)", k, want, evalCycles)
				}
			}
			if k == sim.KernelNaive && len(evalCycles) != 32 {
				t.Fatalf("naive kernel should eval every cycle, got %d", len(evalCycles))
			}
			if k != sim.KernelNaive && len(evalCycles) != 4 {
				t.Fatalf("kernel %v should eval only on pulse cycles, got %v", k, evalCycles)
			}
		})
	}
}

// TestTracerFastForwardEvent: a fast-forward window is traced on the
// kernel track with the number of cycles it covered.
func TestTracerFastForwardEvent(t *testing.T) {
	c := obs.NewCollector()
	w := sim.NewWorld(sim.WithTracer(c))
	w.Add(&pulser{period: 1 << 60}) // effectively always idle
	w.Run(10)
	_, ffCycles := w.FastForwards()
	var traced int64
	for _, e := range c.Events() {
		if e.Track == "kernel" && e.Kind == obs.KindFastForward {
			traced += e.Value
		}
	}
	if traced == 0 {
		t.Fatal("no fast-forward event traced")
	}
	if traced != int64(ffCycles) {
		t.Fatalf("traced fast-forward windows cover %d cycles, kernel counted %d", traced, ffCycles)
	}
}

package sim

import "testing"

// quietPulse is a quiescent, self-scheduled pulse: inert until cycle at,
// where it drives its registered output to 1 for one cycle, then inert
// forever. The shape of a scheduled traffic burst: it commits exactly
// twice (raise, lower).
type quietPulse struct {
	out, next int
	at        uint64
	world     *World
	windows   uint64
}

func (p *quietPulse) Eval() {
	p.next = 0
	if p.world.Cycle() == p.at {
		p.next = 1
	}
}
func (p *quietPulse) Commit() {}
func (p *quietPulse) Quiescent() bool {
	c := p.world.Cycle()
	return !(c == p.at || c == p.at+1)
}
func (p *quietPulse) IdleWindow(n uint64) { p.windows += n }
func (p *quietPulse) NextEvent() (uint64, bool) {
	if c := p.world.Cycle(); c <= p.at {
		return p.at, true
	} else if c == p.at+1 {
		return c, true
	}
	return 0, false
}

// commitPulse is quietPulse with the output actually latched (split so
// Commit stays trivial to reason about in the quiescence predicate).
type commitPulse struct{ quietPulse }

func (p *commitPulse) Commit() { p.out = p.next }

// activeWatcher observes an upstream register; quiescent while it reads
// zero.
type activeWatcher struct {
	src     *int
	seen    int
	staged  int
	windows uint64
}

func (w *activeWatcher) Eval() {
	w.staged = w.seen
	if *w.src != 0 {
		w.staged++
	}
}
func (w *activeWatcher) Commit()             { w.seen = w.staged }
func (w *activeWatcher) Quiescent() bool     { return *w.src == 0 }
func (w *activeWatcher) IdleWindow(n uint64) { w.windows += n }

// TestActiveKernelEquivalenceChain runs a commit-propagation chain —
// self-scheduled pulse, watcher woken purely by the upstream commit —
// under both kernels and demands the naive kernel's observable state on
// every cycle, and from the production kernel exactly the eval/skip
// split the chain implies: the pulse evaluates on cycles 40 and 41, the
// watcher on cycle 41, everything else is skipped.
func TestActiveKernelEquivalenceChain(t *testing.T) {
	build := func(k Kernel) (*World, *commitPulse, *activeWatcher) {
		w := NewWorld(WithKernel(k))
		p := &commitPulse{quietPulse{at: 40}}
		p.world = w
		wt := &activeWatcher{src: &p.out}
		w.Add(p, wt)
		return w, p, wt
	}
	type snap struct {
		seen         int
		evals, skips uint64
		cycle        uint64
	}
	run := func(k Kernel) []snap {
		w, _, wt := build(k)
		var out []snap
		for i := 0; i < 100; i++ {
			w.Step()
			out = append(out, snap{wt.seen, w.Evals(), w.Skips(), w.Cycle()})
		}
		return out
	}
	naive := run(KernelNaive)
	got := run(KernelActive)
	for i := range naive {
		if got[i].seen != naive[i].seen || got[i].cycle != naive[i].cycle {
			t.Fatalf("active diverged from naive at cycle %d: %+v vs %+v", i, got[i], naive[i])
		}
		var evals uint64
		if i >= 40 {
			evals++
		}
		if i >= 41 {
			evals += 2
		}
		if want := (snap{naive[i].seen, evals, 2*uint64(i+1) - evals, naive[i].cycle}); got[i] != want {
			t.Fatalf("active counters at cycle %d: %+v, want %+v", i, got[i], want)
		}
	}
}

// TestActiveKernelParksDeclaredComponents: in a world of asleep Sleepers
// the active list drains, Parked() reports it, fast-forward still
// engages, and the deferred idle bookkeeping settles to exactly the
// elapsed cycles when Run returns.
func TestActiveKernelParksDeclaredComponents(t *testing.T) {
	w := NewWorld(WithKernel(KernelActive))
	comps := make([]*sleepyTicker, 8)
	for i := range comps {
		comps[i] = &sleepyTicker{tickerComp{quiet: true}}
		w.Add(comps[i])
	}
	w.Run(1000)
	if w.Cycle() != 1000 {
		t.Fatalf("cycle = %d", w.Cycle())
	}
	if w.Parked() != len(comps) {
		t.Fatalf("Parked = %d, want %d", w.Parked(), len(comps))
	}
	for i, c := range comps {
		if c.total() != 1000 {
			t.Fatalf("comp %d bookkeeping covers %d of 1000 cycles", i, c.total())
		}
	}
	if w.Skips() != 8000 || w.Evals() != 0 {
		t.Fatalf("skips=%d evals=%d, want 8000/0", w.Skips(), w.Evals())
	}
	// A parked world polls each component at most a handful of times
	// (until it parks), not once per cycle.
	if w.Polls() > 100 {
		t.Fatalf("Polls = %d; parked components are still being polled", w.Polls())
	}
}

// TestActiveKernelWakeUnparks: a staging mutator invoked during the Eval
// phase unparks its parked target and the staged value commits on the
// same clock edge as under the naive kernel; a mutator invoked between
// cycles is observed on the next cycle, also like the naive kernel.
func TestActiveKernelWakeUnparks(t *testing.T) {
	for _, k := range []Kernel{KernelNaive, KernelActive} {
		s := &sleeper{}
		w := NewWorld(WithKernel(k))
		w.Add(s)
		w.Add(&Func{OnEval: func() {
			if w.Cycle() == 3 {
				s.Set(42)
			}
		}})
		for i := 0; i < 3; i++ {
			w.Step()
		}
		if s.cur != 0 {
			t.Fatalf("%v: early commit: cur=%d", k, s.cur)
		}
		if k == KernelActive && w.Parked() != 1 {
			t.Fatalf("asleep target not parked before the wake: Parked = %d", w.Parked())
		}
		w.Step()
		if s.cur != 42 {
			t.Fatalf("%v: staged value not committed on the wake cycle: cur=%d", k, s.cur)
		}
		// Between-cycles mutation: the wake arrives outside the Eval
		// phase, after an idle cycle has parked the target again, and
		// must be honoured on the next cycle.
		w.Step()
		if k == KernelActive && w.Parked() != 1 {
			t.Fatalf("idle target not parked again: Parked = %d", w.Parked())
		}
		s.Set(77)
		w.Step()
		if s.cur != 77 {
			t.Fatalf("%v: between-cycle staged value not committed: cur=%d", k, s.cur)
		}
	}
}

// TestActiveKernelRunUntilSettled: RunUntil evaluates its predicate on
// every cycle with all parked bookkeeping settled, so a predicate
// reading counters or component state observes exactly what an unparked
// run would show.
func TestActiveKernelRunUntilSettled(t *testing.T) {
	w := NewWorld(WithKernel(KernelActive))
	c := &sleepyTicker{tickerComp{quiet: true}}
	w.Add(c)
	checks := 0
	ok := w.RunUntil(func() bool {
		checks++
		if got, want := c.total(), w.Cycle(); got != want {
			t.Fatalf("cycle %d: settled bookkeeping covers %d cycles", want, got)
		}
		if w.Skips() != w.Cycle() {
			t.Fatalf("cycle %d: Skips = %d", w.Cycle(), w.Skips())
		}
		return w.Cycle() >= 50
	}, 200)
	if !ok || checks != 50 {
		t.Fatalf("ok=%v checks=%d, want true/50", ok, checks)
	}
}

// TestAddMidRun: components Added after a run has started — including
// from inside the Eval phase — join on the next cycle boundary with
// working wake closures, under every kernel.
func TestAddMidRun(t *testing.T) {
	for _, k := range []Kernel{KernelNaive, KernelActive} {
		t.Run(k.String(), func(t *testing.T) {
			w := NewWorld(WithKernel(k))
			base := &counter{}
			w.Add(base)
			w.Run(5)

			// Add between runs: must behave like a fresh component.
			late := &sleeper{}
			w.Add(late)

			// Add from inside the Eval phase: the kernel must not commit
			// the new component this cycle (it was never evaluated).
			var mid *sleeper
			w.Add(&Func{OnEval: func() {
				switch w.Cycle() {
				case 7:
					mid = &sleeper{}
					w.Add(mid)
				case 9:
					late.Set(1)
					mid.Set(2)
				}
			}})
			w.Run(10)
			if base.cur != 15 {
				t.Fatalf("base counter = %d, want 15", base.cur)
			}
			if late.cur != 1 || mid.cur != 2 {
				t.Fatalf("staged values lost: late=%d mid=%d", late.cur, mid.cur)
			}
			// Under the production kernel the wake closure produced
			// exactly one commit each, on the staging cycle. (The naive kernel
			// commits every cycle a component exists, by design.)
			if k != KernelNaive && (late.commit != 1 || mid.commit != 1) {
				t.Fatalf("commits late=%d mid=%d, want 1/1", late.commit, mid.commit)
			}
		})
	}
}

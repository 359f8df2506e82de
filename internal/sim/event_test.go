package sim

import "testing"

// tickerComp counts cycles three ways — evaluated, replayed one idle
// cycle at a time, replayed in multi-cycle windows — and can be quiescent
// on demand. The sum of the three must equal the elapsed cycles under
// every kernel.
type tickerComp struct {
	quiet   bool
	evals   uint64
	idles   uint64 // cycles received through IdleWindow(1)
	windows uint64 // cycles received through longer IdleWindows
}

func (c *tickerComp) Eval()           {}
func (c *tickerComp) Commit()         { c.evals++ }
func (c *tickerComp) Quiescent() bool { return c.quiet }
func (c *tickerComp) IdleWindow(n uint64) {
	if n == 1 {
		c.idles++
		return
	}
	c.windows += n
}

func (c *tickerComp) total() uint64 { return c.evals + c.idles + c.windows }

// sleepyTicker is a tickerComp that is also a Sleeper, asleep whenever
// it is quiet: the production kernel parks it on its first skipped
// cycle, and with a no-op SetWake nothing ever wakes it.
type sleepyTicker struct{ tickerComp }

func (c *sleepyTicker) SetWake(func()) {}
func (c *sleepyTicker) Asleep() bool   { return c.quiet }

// timedComp is quiescent until a scheduled cycle, then runs once — the
// shape of a scheduled burst source.
type timedComp struct {
	tickerComp
	world *World
	due   uint64
	fired uint64
}

func (c *timedComp) Quiescent() bool { return c.world.Cycle() != c.due }
func (c *timedComp) Eval()           { c.fired++ }
func (c *timedComp) NextEvent() (uint64, bool) {
	if c.world.Cycle() >= c.due {
		return 0, false
	}
	return c.due, true
}

// TestFastForwardBookkeeping: a fully quiescent world fast-forwards a Run
// window in one step, the idle bookkeeping covers every skipped cycle,
// and the world's eval and skip totals agree with the component's own.
func TestFastForwardBookkeeping(t *testing.T) {
	w := NewWorld()
	c := &tickerComp{quiet: true}
	w.Add(c)
	w.Run(1000)
	if w.Cycle() != 1000 {
		t.Fatalf("cycle = %d, want 1000", w.Cycle())
	}
	if c.total() != 1000 {
		t.Fatalf("bookkeeping covers %d of 1000 cycles (evals=%d idles=%d windows=%d)",
			c.total(), c.evals, c.idles, c.windows)
	}
	if c.windows == 0 {
		t.Fatal("no cycles arrived through IdleWindow; fast-forward never engaged")
	}
	if _, ffCycles := w.FastForwards(); ffCycles != c.windows {
		t.Fatalf("FastForwards cycles %d != component windows %d", ffCycles, c.windows)
	}
	if w.Evals() != c.evals || w.Skips() != c.idles+c.windows {
		t.Fatalf("world activity (%d,%d) disagrees with the component's (%d,%d)",
			w.Evals(), w.Skips(), c.evals, c.idles+c.windows)
	}
	if w.Evals()+w.Skips() != 1000 {
		t.Fatalf("activity covers %d of 1000 cycles", w.Evals()+w.Skips())
	}
}

// TestNextEventBoundsFastForward: a Timed component's self-scheduled
// event is executed on exactly its cycle, with the dead time around it
// fast-forwarded.
func TestNextEventBoundsFastForward(t *testing.T) {
	w := NewWorld()
	c := &timedComp{world: w, due: 700}
	w.Add(c)
	w.Run(2000)
	if c.fired != 1 {
		t.Fatalf("timed component fired %d times, want 1", c.fired)
	}
	if _, ffCycles := w.FastForwards(); ffCycles == 0 {
		t.Fatal("no fast-forward around the scheduled event")
	}
	if c.total() != 2000 {
		t.Fatalf("bookkeeping covers %d of 2000 cycles", c.total())
	}
}

// TestMonitorBlocksFastForward: one every-cycle component (a sim.Func
// monitor) in the world disables fast-forward entirely — the monitor
// observes every cycle under the production kernel, the same contract as
// under the naive one — while the quiescent component next to it is
// still skipped cycle by cycle.
func TestMonitorBlocksFastForward(t *testing.T) {
	w := NewWorld()
	c := &tickerComp{quiet: true}
	observed := uint64(0)
	w.Add(c, &Func{OnEval: func() { observed++ }})
	w.Run(500)
	if observed != 500 {
		t.Fatalf("monitor observed %d of 500 cycles", observed)
	}
	if windows, _ := w.FastForwards(); windows != 0 {
		t.Fatalf("fast-forward engaged across a monitor: %d windows", windows)
	}
	if c.windows != 0 || c.idles != 500 {
		t.Fatalf("quiescent component bookkeeping wrong: idles=%d windows=%d",
			c.idles, c.windows)
	}
}

// TestEventKernelRunUntilPerCycle: RunUntil never fast-forwards — the
// predicate is a monitor and may read the cycle counter.
func TestEventKernelRunUntilPerCycle(t *testing.T) {
	w := NewWorld()
	w.Add(&tickerComp{quiet: true})
	checks := 0
	ok := w.RunUntil(func() bool { checks++; return w.Cycle() >= 50 }, 200)
	if !ok {
		t.Fatal("predicate not satisfied")
	}
	if checks != 50 {
		t.Fatalf("predicate evaluated %d times, want 50 (every cycle)", checks)
	}
	if windows, _ := w.FastForwards(); windows != 0 {
		t.Fatalf("RunUntil fast-forwarded: %d windows", windows)
	}
}

// quiescentOnly has Quiescent but no IdleWindow, so it is not a
// Quiescer: the kernel must evaluate it every cycle, never skip it
// without replaying its bookkeeping.
type quiescentOnly struct{ evals uint64 }

func (c *quiescentOnly) Eval()           {}
func (c *quiescentOnly) Commit()         { c.evals++ }
func (c *quiescentOnly) Quiescent() bool { return true }

// TestQuiescentWithoutIdleWindowRunsEveryCycle: a type that reports
// quiescence but cannot replay idle cycles is evaluated on every cycle.
func TestQuiescentWithoutIdleWindowRunsEveryCycle(t *testing.T) {
	w := NewWorld()
	c := &quiescentOnly{}
	w.Add(c)
	w.Run(100)
	if c.evals != 100 || w.Skips() != 0 {
		t.Fatalf("evaluated on %d of 100 cycles with %d skips, want 100 and 0",
			c.evals, w.Skips())
	}
}

// timedSleeper is a timedComp that also claims to be asleep on every
// cycle. The kernel reads NextEvent only in the active set, so parking
// it would sleep through its own event.
type timedSleeper struct{ timedComp }

func (c *timedSleeper) SetWake(func()) {}
func (c *timedSleeper) Asleep() bool   { return true }

// TestTimedSleeperNeverParks: a Timed component is never parked, even
// when it is an asleep Sleeper, and its self-scheduled event fires on
// its cycle.
func TestTimedSleeperNeverParks(t *testing.T) {
	w := NewWorld()
	c := &timedSleeper{timedComp{world: w, due: 50}}
	w.Add(c)
	w.Run(100)
	if c.fired != 1 {
		t.Fatalf("cycle-50 event fired %d times, want 1", c.fired)
	}
	if w.Parked() != 0 || w.Activations() != 0 {
		t.Fatalf("timed sleeper parked: %d parked, %d activations", w.Parked(), w.Activations())
	}
	if c.total() != 100 {
		t.Fatalf("bookkeeping covers %d of 100 cycles", c.total())
	}
}

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

// TestWakeAtValidation covers the timer-registration edge cases: the
// current cycle is legal, the past is an error, duplicates coalesce.
func TestWakeAtValidation(t *testing.T) {
	w := NewWorld()
	w.Add(&tickerComp{quiet: true})
	w.Run(10)
	if err := w.WakeAt(w.Cycle()); err != nil {
		t.Fatalf("WakeAt(current cycle) rejected: %v", err)
	}
	if err := w.WakeAt(w.Cycle() - 1); err == nil {
		t.Fatal("WakeAt in the past accepted")
	}
	// Duplicate timers are legal and counted until spent.
	for i := 0; i < 3; i++ {
		if err := w.WakeAt(w.Cycle() + 5); err != nil {
			t.Fatal(err)
		}
	}
	if n := w.PendingTimers(); n != 4 {
		t.Fatalf("PendingTimers = %d, want 4", n)
	}
	w.Run(20)
	if n := w.PendingTimers(); n != 0 {
		t.Fatalf("timers not spent after passing: %d pending", n)
	}
}

// TestFastForwardBookkeeping: a fully quiescent world fast-forwards a Run
// window in one step, the idle bookkeeping covers every skipped cycle,
// and the per-component counters agree with the aggregate ones.
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
	evals, skips := w.ComponentActivity(0)
	if evals != w.Evals() || skips != w.Skips() {
		t.Fatalf("per-component activity (%d,%d) disagrees with world (%d,%d)",
			evals, skips, w.Evals(), w.Skips())
	}
	if evals+skips != 1000 {
		t.Fatalf("activity covers %d of 1000 cycles", evals+skips)
	}
}

// TestTimerBoundsFastForward: a timer inside an otherwise dead window
// forces that cycle to execute as a normal step, so a mutation staged for
// it is observed exactly on time.
func TestTimerBoundsFastForward(t *testing.T) {
	w := NewWorld()
	c := &tickerComp{quiet: true}
	w.Add(c)
	if err := w.WakeAt(500); err != nil {
		t.Fatal(err)
	}
	w.Run(1000)
	// The timer splits the window: no fast-forward may cross cycle 500,
	// so the world stepped it normally (a skip, not a window cycle).
	windows, _ := w.FastForwards()
	if windows < 2 {
		t.Fatalf("timer did not split the window: %d fast-forwards", windows)
	}
	if c.total() != 1000 {
		t.Fatalf("bookkeeping covers %d of 1000 cycles", c.total())
	}
}

// TestTimerAtRunBoundary: a timer on the last cycle of a Run window fires
// (is spent) even though the window ends there, and one exactly past the
// end stays pending — the boundary is exclusive.
func TestTimerAtRunBoundary(t *testing.T) {
	w := NewWorld()
	w.Add(&tickerComp{quiet: true})
	if err := w.WakeAt(99); err != nil { // last cycle executed by Run(100)
		t.Fatal(err)
	}
	if err := w.WakeAt(100); err != nil { // first cycle of the next window
		t.Fatal(err)
	}
	w.Run(100)
	if w.Cycle() != 100 {
		t.Fatalf("cycle = %d, want 100", w.Cycle())
	}
	if n := w.PendingTimers(); n != 1 {
		t.Fatalf("PendingTimers = %d, want 1 (the boundary timer)", n)
	}
	w.Run(1)
	if n := w.PendingTimers(); n != 0 {
		t.Fatalf("boundary timer still pending after its cycle ran")
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

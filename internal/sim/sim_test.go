package sim

import (
	"fmt"
	"testing"
)

// counter is a toy clocked component: a register that increments each cycle.
type counter struct {
	cur, next int
}

func (c *counter) Eval()   { c.next = c.cur + 1 }
func (c *counter) Commit() { c.cur = c.next }

// follower registers the value of another counter; with correct two-phase
// semantics it lags by exactly one cycle.
type follower struct {
	src       *counter
	cur, next int
}

func (f *follower) Eval()   { f.next = f.src.cur }
func (f *follower) Commit() { f.cur = f.next }

func TestTwoPhaseSemantics(t *testing.T) {
	c := &counter{}
	f := &follower{src: c}
	// Deliberately add the follower first: order must not matter.
	w := NewWorld()
	w.Add(f, c)
	for i := 1; i <= 10; i++ {
		w.Step()
		if c.cur != i {
			t.Fatalf("cycle %d: counter = %d", i, c.cur)
		}
		if f.cur != i-1 {
			t.Fatalf("cycle %d: follower = %d, want %d (one-cycle lag)", i, f.cur, i-1)
		}
	}
}

func TestOrderIndependence(t *testing.T) {
	run := func(reversed bool) int {
		c := &counter{}
		f := &follower{src: c}
		w := NewWorld()
		if reversed {
			w.Add(c, f)
		} else {
			w.Add(f, c)
		}
		w.Run(100)
		return f.cur
	}
	if a, b := run(false), run(true); a != b {
		t.Fatalf("registration order changed behaviour: %d vs %d", a, b)
	}
}

func TestRunAndCycle(t *testing.T) {
	w := NewWorld()
	c := &counter{}
	w.Add(c)
	w.Run(42)
	if w.Cycle() != 42 {
		t.Fatalf("Cycle = %d", w.Cycle())
	}
	if c.cur != 42 {
		t.Fatalf("counter = %d", c.cur)
	}
	if w.Components() != 1 {
		t.Fatalf("Components = %d", w.Components())
	}
}

func TestRunUntil(t *testing.T) {
	w := NewWorld()
	c := &counter{}
	w.Add(c)
	if !w.RunUntil(func() bool { return c.cur >= 7 }, 100) {
		t.Fatal("RunUntil did not satisfy predicate")
	}
	if c.cur != 7 {
		t.Fatalf("stopped at %d, want 7", c.cur)
	}
	if w.RunUntil(func() bool { return c.cur >= 1000 }, 10) {
		t.Fatal("RunUntil claimed success it cannot have had")
	}
}

func TestAddNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on nil component")
		}
	}()
	NewWorld().Add(nil)
}

// sleeper is a quiescer with a Push/Inject-style staging mutator: Set
// stages a value during the Eval phase, Commit latches it. IdleWindow
// counts the cycles the kernel skipped. It is asleep while nothing is
// staged, so the production kernel parks it until Set wakes it.
type sleeper struct {
	cur    int
	staged *int
	idle   uint64
	commit uint64
	wake   func()
}

func (s *sleeper) Eval() {}
func (s *sleeper) Commit() {
	s.commit++
	if s.staged != nil {
		s.cur = *s.staged
		s.staged = nil
	}
}
func (s *sleeper) Quiescent() bool     { return s.staged == nil }
func (s *sleeper) IdleWindow(n uint64) { s.idle += n }
func (s *sleeper) SetWake(fn func())   { s.wake = fn }
func (s *sleeper) Asleep() bool        { return s.staged == nil }
func (s *sleeper) Set(v int) {
	cp := v
	s.staged = &cp
	if s.wake != nil {
		s.wake()
	}
}

// TestWakeOnStagedMutation: a component already skipped this cycle must be
// re-activated by a staging mutator invoked later in the Eval phase, so the
// staged value commits on the same clock edge as under the naive kernel.
func TestWakeOnStagedMutation(t *testing.T) {
	for _, k := range []Kernel{KernelActive, KernelNaive} {
		s := &sleeper{}
		w := NewWorld(WithKernel(k))
		w.Add(s) // before the stimulus: its Eval slot passes first
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
		w.Step() // cycle 3: Set during Eval, value must commit this edge
		if s.cur != 42 {
			t.Fatalf("%v: staged value not committed on the wake cycle: cur=%d", k, s.cur)
		}
	}
}

// TestIdleTickEverySkippedCycle: skipped cycles replay their idle
// bookkeeping instead of Commit, once per cycle, and active cycles run
// Commit.
func TestIdleTickEverySkippedCycle(t *testing.T) {
	s := &sleeper{}
	w := NewWorld() // the production kernel by default
	w.Add(s)
	w.Add(&Func{OnEval: func() {
		if w.Cycle() == 5 {
			s.Set(1)
		}
	}})
	w.Run(10)
	if s.commit != 1 {
		t.Fatalf("commits = %d, want 1 (the wake cycle)", s.commit)
	}
	if s.idle != 9 {
		t.Fatalf("idle ticks = %d, want 9", s.idle)
	}
	if w.Skips() != 9 || w.Evals() != 10+1 {
		// 10 Func evals + 1 sleeper eval.
		t.Fatalf("skips=%d evals=%d", w.Skips(), w.Evals())
	}
}

// pulse drives its registered output to 1 for exactly one cycle.
type pulse struct {
	out, next int
	at        uint64
	n         uint64
}

func (p *pulse) Eval() {
	p.next = 0
	if p.n == p.at {
		p.next = 1
	}
}
func (p *pulse) Commit() { p.out = p.next; p.n++ }

// watcher counts nonzero observations of a neighbour's registered output.
// It is woken purely by the Quiescent poll seeing the neighbour's commit —
// no explicit wake call.
type watcher struct {
	src    *int
	seen   int
	staged int
}

func (w *watcher) Eval() {
	w.staged = w.seen
	if *w.src != 0 {
		w.staged++
	}
}
func (w *watcher) Commit()             { w.seen = w.staged }
func (w *watcher) Quiescent() bool     { return *w.src == 0 }
func (w *watcher) IdleWindow(n uint64) {}

// TestNeighbourCommitWakes: a quiescent component is woken by a
// neighbour's commit making its input non-idle, on exactly the cycle the
// naive kernel would have processed it.
func TestNeighbourCommitWakes(t *testing.T) {
	run := func(k Kernel) (*World, *watcher) {
		p := &pulse{at: 5}
		wt := &watcher{src: &p.out}
		w := NewWorld(WithKernel(k))
		w.Add(p)
		w.Add(wt)
		return w, wt
	}
	wa, a := run(KernelActive)
	wn, n := run(KernelNaive)
	for i := 0; i < 12; i++ {
		wa.Step()
		wn.Step()
		if a.seen != n.seen {
			t.Fatalf("cycle %d: active saw %d, naive saw %d", i, a.seen, n.seen)
		}
	}
	if a.seen != 1 {
		t.Fatalf("watcher saw %d pulses, want 1", a.seen)
	}
	if wa.Skips() == 0 {
		t.Fatal("active kernel never skipped the watcher")
	}
}

// TestRunUntilFiresOnWakeCycle: the predicate must observe a wake-cycle
// event on the cycle it happens, even when the waking component had been
// quiescent for the whole run up to that point.
func TestRunUntilFiresOnWakeCycle(t *testing.T) {
	const at = 7
	p := &pulse{at: at}
	wt := &watcher{src: &p.out}
	w := NewWorld()
	w.Add(p)
	w.Add(wt)
	if !w.RunUntil(func() bool { return wt.seen > 0 }, 100) {
		t.Fatal("RunUntil missed the wake event")
	}
	// The pulse is registered at the end of cycle `at` and observed during
	// cycle at+1; RunUntil must stop right after that commit.
	if got, want := w.Cycle(), uint64(at+2); got != want {
		t.Fatalf("RunUntil stopped at cycle %d, want %d", got, want)
	}
}

// TestFuncNeverSkipped: monitors and stimulus wrapped in Func run every
// cycle under the production kernel, even in an otherwise fully quiescent
// world.
func TestFuncNeverSkipped(t *testing.T) {
	s := &sleeper{}
	evals, commits := 0, 0
	w := NewWorld()
	w.Add(s)
	w.Add(&Func{OnEval: func() { evals++ }, OnCommit: func() { commits++ }})
	w.Run(50)
	if evals != 50 || commits != 50 {
		t.Fatalf("monitor ran %d/%d cycles, want 50/50", evals, commits)
	}
	if s.idle != 50 {
		t.Fatalf("sleeper idled %d cycles, want 50", s.idle)
	}
}

func TestFuncComponent(t *testing.T) {
	evals, commits := 0, 0
	w := NewWorld()
	w.Add(&Func{OnEval: func() { evals++ }, OnCommit: func() { commits++ }})
	w.Add(&Func{}) // nil callbacks must be tolerated
	w.Run(5)
	if evals != 5 || commits != 5 {
		t.Fatalf("evals=%d commits=%d, want 5/5", evals, commits)
	}
}

func TestEvalSeesPreEdgeState(t *testing.T) {
	// During Eval of any component, no other component has committed yet.
	c := &counter{}
	var observed []int
	probe := &Func{OnEval: func() { observed = append(observed, c.cur) }}
	w := NewWorld()
	w.Add(c, probe)
	w.Run(3)
	want := []int{0, 1, 2}
	for i := range want {
		if observed[i] != want[i] {
			t.Fatalf("probe saw %v, want %v", observed, want)
		}
	}
}

// inbox is a Quiescer that is not a Waker: Post stages a value with no
// wake call. Eval stamps the staged values with the cycle they were
// evaluated in; Commit latches them.
type inbox struct {
	world  *World
	staged []int
	next   [][2]uint64
	got    [][2]uint64 // (value, Eval cycle)
}

func (b *inbox) Post(v int) { b.staged = append(b.staged, v) }
func (b *inbox) Eval() {
	b.next = b.next[:0]
	for _, v := range b.staged {
		b.next = append(b.next, [2]uint64{uint64(v), b.world.Cycle()})
	}
}
func (b *inbox) Commit() {
	b.got = append(b.got, b.next...)
	b.staged = b.staged[:0]
}
func (b *inbox) Quiescent() bool     { return len(b.staged) == 0 }
func (b *inbox) IdleWindow(n uint64) {}

// TestEarlierEvalStagesIntoLaterComponent: component 0's Eval stages work
// into later components in the same cycle — an inbox that is polled but
// never woken, and parked sleepers ahead of the sweep in the same and in
// a later bitset word, which the wake returns to the active set. Each
// must Eval and commit the staged value in the staging cycle under both
// kernels, exactly as the naive kernel does. A kernel that polls every
// component before running any Eval sees the inbox quiescent and
// evaluates it one cycle late.
func TestEarlierEvalStagesIntoLaterComponent(t *testing.T) {
	type outcome struct {
		got          [][2]uint64
		near, far    int
		nearC, farC  uint64
		evals, skips uint64
	}
	run := func(k Kernel) outcome {
		w := NewWorld(WithKernel(k))
		box := &inbox{world: w}
		near, far := &sleeper{}, &sleeper{}
		w.Add(&Func{OnEval: func() {
			switch w.Cycle() {
			case 3:
				box.Post(7)
				near.Set(1)
				far.Set(2)
			case 9:
				box.Post(8)
			}
		}})
		w.Add(box, near)
		for i := 0; i < 100; i++ { // push far into the second bitset word
			w.Add(&sleepyTicker{tickerComp{quiet: true}})
		}
		w.Add(far)
		w.Run(3) // cycles 0-2: everything quiescent parks
		if k == KernelActive && w.Parked() < 100 {
			t.Fatalf("only %d components parked before the staging cycle", w.Parked())
		}
		w.Step() // cycle 3
		o := outcome{near: near.cur, far: far.cur, nearC: near.commit, farC: far.commit}
		w.Run(16)
		o.got = box.got
		o.evals, o.skips = w.Evals(), w.Skips()
		return o
	}
	want := [][2]uint64{{7, 3}, {8, 9}}
	for _, k := range []Kernel{KernelNaive, KernelActive} {
		o := run(k)
		if fmt.Sprint(o.got) != fmt.Sprint(want) {
			t.Errorf("%v: inbox evaluated %v, want %v (value, cycle)", k, o.got, want)
		}
		if o.near != 1 || o.far != 2 {
			t.Errorf("%v: parked sleepers committed near=%d far=%d in the staging cycle, want 1/2",
				k, o.near, o.far)
		}
		if k == KernelActive && (o.nearC != 1 || o.farC != 1) {
			t.Errorf("%v: sleepers committed %d/%d times by the staging cycle, want 1/1",
				k, o.nearC, o.farC)
		}
		if o.evals+o.skips != 20*104 {
			t.Errorf("%v: evals+skips = %d, want %d", k, o.evals+o.skips, 20*104)
		}
	}
}

// Package sim provides the synchronous, two-phase simulation kernel used by
// all cycle-accurate NoC models.
//
// Hardware registers sample their inputs on the clock edge; a software model
// must therefore separate "compute next state from current outputs" from
// "commit next state". Every clocked component implements Clocked: during a
// cycle the kernel first calls Eval on every component (all of them observe
// the same pre-edge signal values) and then Commit on every component (all
// outputs advance together). Because the paper's routers register their
// outputs (Section 5.1: "The 20 output lanes of the crossbar are
// registered"), there are no combinational paths between components, and
// components may be evaluated in any order.
//
// # One production kernel and the naive oracle
//
// A World runs on one of two kernels. KernelNaive evaluates and commits
// every component every cycle; it is the oracle the production kernel is
// checked against. KernelActive, the zero value and the kernel every
// world runs on by default, skips the work the paper's router saves in
// hardware: idle lanes and gated clocks do no work, and idle components
// cost the simulator nothing or next to nothing. It does so on three
// levels, each byte-identical to the naive kernel:
//
//   - Per cycle, a component implementing Quiescer is polled at its Eval
//     slot and, when quiescent, skips both Eval and Commit; its idle
//     bookkeeping is replayed by IdleWindow(1) in the Commit phase.
//   - Per component, a skipped Sleeper that certifies it is asleep —
//     only its own staging mutators can end its quiescence — parks: it
//     leaves the sweep entirely until its wake closure runs, and the
//     cycles it owes are replayed in one IdleWindow batch when it
//     unparks or the world settles (active.go).
//   - Per world, a Run window in which every component is quiescent
//     fast-forwards to the next event horizon: the earliest
//     self-scheduled event (NextEvent) of an active component, or the
//     end of the window.
//
// # The skipping contract
//
// Skipping is exact, not approximate, under these rules:
//
//   - Quiescent must return true only when running Eval+Commit now would
//     leave every externally visible value unchanged, except for uniform
//     per-cycle bookkeeping (cycle counters, slot counters, constant clock
//     energy) that IdleWindow reproduces exactly.
//   - Quiescent must account for all staged work (pushed words, injected
//     flits, pending configuration writes), so work staged before the poll
//     is never missed. Since the sweep polls each component at its own
//     slot, after every earlier component's Eval, an earlier component may
//     stage work into a later one without waking it.
//   - A mutator that stages work during the Eval phase after the
//     component's slot has already been polled must wake the component: the
//     kernel hands Wakers a wake function at registration, and the wake
//     runs the missed Eval immediately (safe because staged work is
//     processed in Commit and never read by Eval). Such mutators must only
//     be called during the Eval phase, the same rule the two-phase
//     semantics already impose on Push/Inject/Pop.
//   - Bookkeeping replayed by IdleWindow must never influence Quiescent. A
//     component whose quiescence can end purely through the passage of
//     cycles (a timer expiring, a scheduled burst coming due) must
//     implement Timed and report that cycle via NextEvent; the kernel
//     never fast-forwards past it. Such a component is never parked.
//
// The interfaces carry the rest of the contract: only a Quiescer, which
// has both Quiescent and IdleWindow, is ever skipped, Timed and Sleeper
// embed Quiescer, and Add never registers a Timed component as a
// Sleeper.
//
// Fast-forward is exact by a fixed-point argument: a cycle in which every
// component is quiescent commits no register, so the pre-edge signal state
// the next cycle's polls would observe is unchanged — every later cycle up
// to the horizon would skip identically. Stimulus and monitors that must
// observe every cycle stay sim.Func (or any non-Quiescer): one such
// component in the world disables fast-forward, because no cycle then
// skips all components. External drivers that mutate the world between
// Run calls need no declaration either — fast-forward never crosses a Run
// boundary.
package sim

import (
	"slices"
	"strconv"

	"repro/internal/obs"
)

// Clocked is a synchronous hardware component.
type Clocked interface {
	// Eval computes the component's next state from the currently visible
	// outputs of all components. It must not change any output visible to
	// other components.
	Eval()
	// Commit makes the state computed by Eval visible, modelling the
	// clock edge.
	Commit()
}

// Quiescer is optionally implemented by components that can report having
// no pending work; the kernel skips, parks and fast-forwards only
// Quiescers, so a type with Quiescent but no IdleWindow is evaluated
// every cycle. Quiescent must be true only if Eval+Commit this cycle would
// change nothing externally visible beyond what IdleWindow reproduces,
// and must account for all staged work (see the package comment).
//
// IdleWindow(n) replays n skipped cycles of the uniform per-cycle
// bookkeeping Commit performs even when idle — advancing a cycle or slot
// counter, charging the constant idle clock energy to a power meter —
// and must leave the component in exactly the state n idle Commits would
// have, including bit-identical accumulated floats; it is a no-op for a
// component that keeps no such bookkeeping. The kernel calls
// IdleWindow(1) in the Commit phase of every skipped cycle, and one
// batched IdleWindow for a fast-forwarded window or a parked stretch.
type Quiescer interface {
	Quiescent() bool
	IdleWindow(n uint64)
}

// Timed is optionally implemented by Quiescers whose quiescence can end
// without any external register changing or mutator being invoked — purely
// because the clock reaches some cycle (a scheduled burst coming due, a
// timeout expiring). NextEvent returns the earliest such absolute cycle,
// or ok=false when no self-scheduled work is pending. The kernel never
// fast-forwards past the reported cycle; the naive kernel ignores it.
// A Timed component stays in the active set, where the kernel reads
// NextEvent: World.Add never registers it as a Sleeper.
type Timed interface {
	Quiescer
	NextEvent() (cycle uint64, ok bool)
}

// Waker is optionally implemented by components with staging mutators
// (Push, Inject, PushConfig, Pop) that can be invoked by other components
// during the Eval phase. The kernel calls SetWake at registration; the
// component must invoke the wake function from every such mutator so a
// skip decision already taken this cycle is revised. The wake function is
// safe to call at any time (outside the Eval phase it only unparks a
// parked component for the next cycle; the next poll covers the staged
// work). For a parked Sleeper it is the only way back into the sweep.
type Waker interface {
	SetWake(func())
}

// Sleeper is optionally implemented by quiescent Wakers that can certify
// a stronger form of quiescence: Asleep must be true only while no change
// on any input register the component reads can end its quiescence —
// only one of its own staging mutators (which call the wake function)
// can. A Sleeper skipped on a cycle it is asleep parks: it leaves the
// per-cycle sweep, and the wake closure is its sole re-activation
// channel, so the component must clear the asleep condition before (or
// upon) the wake function running. Sleepers are the only components the
// kernel parks, and a Timed one never parks: nothing reads a parked
// component's NextEvent.
type Sleeper interface {
	Quiescer
	Waker
	Asleep() bool
}

// Kernel selects the scheduling strategy of a World.
type Kernel int

const (
	// KernelActive is the production kernel and the zero value:
	// quiescent components are skipped, asleep Sleepers are parked out
	// of the sweep, and fully quiescent Run windows are
	// fast-forwarded, with results byte-identical to KernelNaive. See
	// active.go.
	KernelActive Kernel = iota
	// KernelNaive evaluates and commits every component every cycle:
	// the oracle the production kernel is checked against.
	KernelNaive
)

// String names the kernel.
func (k Kernel) String() string {
	switch k {
	case KernelActive:
		return "active"
	case KernelNaive:
		return "naive"
	default:
		return "kernel(?)"
	}
}

// WorldOption configures a World at construction.
type WorldOption func(*World)

// WithKernel selects the world's kernel (default KernelActive).
func WithKernel(k Kernel) WorldOption {
	return func(w *World) { w.kernel = k }
}

// WithTracer attaches a structured event tracer to the world: the kernel
// emits eval, wake, park/unpark and fast-forward events into it,
// timestamped in cycles. A nil tracer (the default) is the fast path —
// every emission site is a single predictable branch — and tracing never
// influences scheduling, so results are byte-identical with or without
// it.
func WithTracer(t obs.Tracer) WorldOption {
	return func(w *World) { w.tracer = t }
}

// TraceNamer is optionally implemented by components that want a
// readable trace track name; components without it are tracked by
// registration index.
type TraceNamer interface {
	TraceName() string
}

// kernelTrack is the track kernel-global events (fast-forward) are
// emitted on.
const kernelTrack = "kernel"

// World is an ordered collection of clocked components driven by a common
// clock, with an attached cycle counter.
type World struct {
	components []Clocked
	quiescers  []Quiescer // parallel to components; nil if not implemented
	timed      []Timed    // parallel to components; nil if not implemented
	sleepers   []Sleeper  // parallel to components; nil if not implemented or Timed
	skipped    []bool     // per component, skip decision of the current cycle
	kernel     Kernel
	cycle      uint64

	inEval  bool // currently inside the Eval sweep
	evalPos int  // index of the component whose Eval slot is active

	evals uint64 // Eval/Commit pairs executed
	skips uint64 // Eval/Commit pairs skipped
	polls uint64 // Quiescent() polls executed

	allSkipped bool   // last cycle skipped every component
	ffWindows  uint64 // fast-forward windows taken
	ffCycles   uint64 // cycles covered by fast-forward

	// Parking state (active.go); only KernelActive ever parks.
	live        []uint64 // bitset of unparked components
	parkedAt    []uint64 // parallel; first unsettled parked cycle
	parkedCount int
	sumParkedAt uint64 // sum of parkedAt over parked components
	activations uint64 // unpark count
	pending     []int  // unpark requests for the next cycle

	tracer obs.Tracer // kernel event sink; nil (the default) is the fast path
	tracks []string   // per-component track names, built lazily while tracing
}

// NewWorld returns an empty world. Without options it runs on the
// production kernel, KernelActive.
func NewWorld(opts ...WorldOption) *World {
	w := &World{}
	for _, o := range opts {
		o(w)
	}
	return w
}

// Kernel returns the world's kernel.
func (w *World) Kernel() Kernel { return w.kernel }

// Add registers components with the world's clock. Nil components are
// rejected so wiring bugs fail fast. A component Added mid-run — even
// mid-cycle — joins the sweep at the next cycle boundary. A Timed
// component is not registered as a Sleeper, so it never parks. The
// world's tables grow once per call, so a mesh registers all its nodes
// with one.
func (w *World) Add(cs ...Clocked) {
	k := len(cs)
	w.components = slices.Grow(w.components, k)
	w.quiescers = slices.Grow(w.quiescers, k)
	w.timed = slices.Grow(w.timed, k)
	w.sleepers = slices.Grow(w.sleepers, k)
	w.skipped = slices.Grow(w.skipped, k)
	w.parkedAt = slices.Grow(w.parkedAt, k)
	w.live = slices.Grow(w.live, (len(w.components)+k+63)>>6-len(w.live))
	for _, c := range cs {
		if c == nil {
			panic("sim: adding nil component")
		}
		idx := len(w.components)
		w.components = append(w.components, c)
		q, _ := c.(Quiescer)
		w.quiescers = append(w.quiescers, q)
		td, _ := c.(Timed)
		w.timed = append(w.timed, td)
		sl, _ := c.(Sleeper)
		if td != nil {
			sl = nil
		}
		w.sleepers = append(w.sleepers, sl)
		w.skipped = append(w.skipped, false)
		w.parkedAt = append(w.parkedAt, 0)
		if idx&63 == 0 {
			w.live = append(w.live, 0)
		}
		w.live[idx>>6] |= 1 << (idx & 63)
		if wk, ok := c.(Waker); ok {
			wk.SetWake(w.wakeFn(idx))
		}
	}
}

// wakeFn builds the wake closure handed to Wakers. During the Eval phase
// it revises a skip decision already taken this cycle (see wake); between
// cycles it records an unpark request for a parked component, whose next
// poll then observes the staged work. The closure captures the
// registration index, which is stable for the world's lifetime even when
// components are Added mid-run.
func (w *World) wakeFn(i int) func() {
	return func() {
		if w.inEval {
			w.wake(i)
			return
		}
		if w.isParked(i) {
			w.pending = append(w.pending, i)
		}
	}
}

// track returns component i's trace track name, memoized on first use.
// Only called while a tracer is attached, so untraced worlds never build
// the table.
func (w *World) track(i int) string {
	for len(w.tracks) < len(w.components) {
		w.tracks = append(w.tracks, "")
	}
	if w.tracks[i] == "" {
		if n, ok := w.components[i].(TraceNamer); ok {
			w.tracks[i] = n.TraceName()
		} else {
			w.tracks[i] = "comp" + strconv.Itoa(i)
		}
	}
	return w.tracks[i]
}

// Components returns the number of registered components.
func (w *World) Components() int { return len(w.components) }

// Cycle returns the number of elapsed clock cycles.
func (w *World) Cycle() uint64 { return w.cycle }

// Evals returns the number of Eval/Commit pairs executed so far.
func (w *World) Evals() uint64 { return w.evals }

// Skips returns the number of Eval/Commit pairs skipped, including cycles
// covered by fast-forward and cycles deferred on parked components that
// have not been settled yet, so the count reads the same at any time.
func (w *World) Skips() uint64 { return w.skips + w.parkedPendingSkips() }

// FastForwards returns how many fast-forward windows the kernel has
// taken and how many cycles they covered in total.
func (w *World) FastForwards() (windows, cycles uint64) {
	return w.ffWindows, w.ffCycles
}

// Polls returns the number of Quiescent() polls executed so far — the
// per-cycle overhead term parking exists to shrink.
func (w *World) Polls() uint64 { return w.polls }

// Step advances the world by one clock cycle and settles every parked
// component's deferred bookkeeping, so external observers of a stepped
// world read the same state as under the naive kernel.
func (w *World) Step() {
	w.step()
	if w.parkedCount > 0 {
		w.flushParked()
	}
}

// step advances one cycle without settling parked components; Run
// flushes once at the end instead of every cycle.
func (w *World) step() {
	if w.kernel == KernelNaive {
		w.stepNaive()
		return
	}
	w.stepActive()
}

// stepNaive evaluates, then commits, every component.
func (w *World) stepNaive() {
	n0 := len(w.components) // components Added mid-cycle join next cycle
	w.inEval = true
	for i := 0; i < n0; i++ {
		w.evalPos = i
		w.components[i].Eval()
	}
	w.inEval = false
	for i := 0; i < n0; i++ {
		w.commit(i)
	}
	w.allSkipped = false
	w.cycle++
}

// commit runs component i's Commit and counts the evaluated pair.
func (w *World) commit(i int) {
	w.evals++
	if w.tracer != nil {
		w.emit(i, obs.KindEval, 0)
	}
	w.components[i].Commit()
}

// emit traces a kernel event on component i's track. Callers check for
// a nil tracer first as well, so untraced worlds skip the call.
func (w *World) emit(i int, kind string, value int64) {
	if w.tracer != nil {
		w.tracer.Emit(obs.Event{Cycle: w.cycle, Scope: obs.ScopeKernel,
			Track: w.track(i), Kind: kind, Value: value})
	}
}

// Run advances the world by n cycles. Under KernelActive, windows in
// which every component is quiescent are fast-forwarded to the next
// self-scheduled component event or the end of the window, with the
// skipped cycles' idle bookkeeping replayed exactly, and every parked
// component's bookkeeping is settled before Run returns.
func (w *World) Run(n int) {
	if n <= 0 {
		return
	}
	end := w.cycle + uint64(n)
	for w.cycle < end {
		w.step()
		if w.allSkipped && w.cycle < end {
			if ff := w.horizon(end) - w.cycle; ff > 0 {
				w.fastForward(ff)
			}
		}
	}
	if w.parkedCount > 0 {
		w.flushParked()
	}
}

// RunUntil steps the world until the predicate returns true or maxCycles
// elapse; it reports whether the predicate was satisfied. The predicate is
// evaluated after each cycle, with all parked bookkeeping settled,
// including cycles in which every component was quiescent, so a
// wake-cycle event is observed on the cycle it happens. Because the
// predicate may read Cycle() or any other per-cycle state, RunUntil never
// fast-forwards — the predicate is a monitor, and monitors observe every
// cycle.
func (w *World) RunUntil(pred func() bool, maxCycles int) bool {
	for i := 0; i < maxCycles; i++ {
		w.Step()
		if pred() {
			return true
		}
	}
	return pred()
}

// Func wraps an Eval/Commit function pair as a Clocked component; handy for
// testbench stimulus and monitors. Func deliberately does not implement
// Quiescer: stimulus and monitors run every cycle under every kernel.
type Func struct {
	// OnEval runs in the Eval phase; may be nil.
	OnEval func()
	// OnCommit runs in the Commit phase; may be nil.
	OnCommit func()
}

// Eval implements Clocked.
func (f *Func) Eval() {
	if f.OnEval != nil {
		f.OnEval()
	}
}

// Commit implements Clocked.
func (f *Func) Commit() {
	if f.OnCommit != nil {
		f.OnCommit()
	}
}

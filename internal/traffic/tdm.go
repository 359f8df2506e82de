package traffic

import (
	"fmt"

	"repro/internal/aethereal"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/stats"
)

// This file holds the Æthereal-style TDM router's harness: the slot
// presenters both TDM runners share, one per input port (tdmPorts), and
// the Table-3 stream runner RunTDM. The pattern runner, RunTDMPattern,
// sits with the other pattern harnesses in pattern.go.

// tdmPending is one word queued at a TDM input with its injection
// stamp.
type tdmPending struct {
	word  uint32
	stamp uint64
}

// tdmFlow is one (in,out) flow multiplexed by a tdmPresenter: a queue
// of words waiting for the slots the router's table reserves for the
// pair, and the words in flight through the crossbar. The measurement
// sinks are the presenter's, shared by its flows.
type tdmFlow struct {
	p        *tdmPresenter
	out      int
	staged   []tdmPending // enqueued this cycle; merged into queue at Commit
	queue    []tdmPending
	inFlight []tdmPending
	track    string

	delivered uint64
}

// enqueue queues one word for presentation, stamped with its injection
// cycle for the latency measurement. It is a staging mutator in the
// sim.Waker sense — sources invoke it from their Eval, so the word
// lands in a staging slice the presenter's Eval never reads (the
// two-phase contract), is merged at the presenter's Commit the same
// cycle whatever order the components were registered in, and becomes
// presentable the next cycle. The wake revises a skip decision already
// taken this cycle so that Commit actually runs.
func (f *tdmFlow) enqueue(word uint32, stamp uint64) {
	f.staged = append(f.staged, tdmPending{word: word, stamp: stamp})
	if t := f.p.tracer; t != nil {
		t.Emit(obs.Event{Cycle: stamp, Track: f.track,
			Kind: obs.KindInject, Value: int64(f.out)})
	}
	if f.p.wake != nil {
		f.p.wake()
	}
}

// backlog returns the number of words queued but not yet presented.
func (f *tdmFlow) backlog() int { return len(f.staged) + len(f.queue) }

// idle reports nothing staged, queued or in flight.
func (f *tdmFlow) idle() bool {
	return len(f.staged) == 0 && len(f.queue) == 0 && len(f.inFlight) == 0
}

// tdmPresenter owns one TDM input port's data/valid registers and
// multiplexes its flows onto the slots the router's table reserves for
// them. It also observes deliveries on each flow's output register: a
// word counts as delivered, records its latency and pays its
// ToggleReg/Gate/Link energy once it has crossed the crossbar into the
// output register. It is skippable whenever the port has nothing queued
// or in flight, and is the one implementation of the slot algorithm
// behind RunTDM and RunTDMPattern. Reading the table is exact because
// each (in,out) pair has at most one flow.
type tdmPresenter struct {
	r     *aethereal.Router
	in    int
	data  *uint32
	valid *bool
	// next and nextValid are the register values Commit latches into
	// data and valid.
	next      uint32
	nextValid bool
	flows     []*tdmFlow
	cycle     uint64
	wake      func()
	tdmSinks
}

// SetWake implements sim.Waker: enqueue is a staging mutator invoked
// from a source component's Eval, so a skip decision already taken this
// cycle must be revised for the enqueued word to be presented on its
// own cycle, whatever order the components were registered in.
func (p *tdmPresenter) SetWake(fn func()) { p.wake = fn }

// tdmSinks are the measurement sinks of a TDM run, shared by all its
// presenters and their flows.
type tdmSinks struct {
	rec     *stats.Recorder
	meter   *power.Meter
	toggles int // bits charged per delivered word
	tracer  obs.Tracer
}

// Eval implements sim.Clocked.
func (p *tdmPresenter) Eval() {
	slots := p.r.P.Slots
	// Observe the registered outputs first: the value visible now was
	// committed from the previous cycle's slot.
	prev := (p.r.Slot() - 1 + slots) % slots
	for _, f := range p.flows {
		if p.r.OutValid[f.out] && p.r.Table.Entry(prev, f.out) == p.in && len(f.inFlight) > 0 {
			head := f.inFlight[0]
			f.inFlight = f.inFlight[1:]
			f.delivered++
			p.rec.Add(p.cycle, float64(p.cycle-head.stamp))
			p.meter.AddToggles(power.ToggleReg, p.toggles)
			p.meter.AddToggles(power.ToggleGate, p.toggles)
			p.meter.AddToggles(power.ToggleLink, p.toggles)
			if p.tracer != nil {
				p.tracer.Emit(obs.Event{Cycle: p.cycle, Track: f.track,
					Kind: obs.KindDeliver, Value: int64(f.delivered)})
			}
		}
	}
	// The router's next Eval uses the slot after the current one;
	// present a word iff the table gives that slot to one of this
	// input's flows and the flow has data queued.
	p.nextValid = false
	upcoming := (p.r.Slot() + 1) % slots
	for _, f := range p.flows {
		if p.r.Table.Entry(upcoming, f.out) == p.in && len(f.queue) > 0 {
			head := f.queue[0]
			f.queue = f.queue[1:]
			p.next, p.nextValid = head.word, true
			f.inFlight = append(f.inFlight, head)
			break
		}
	}
}

// Commit implements sim.Clocked: it latches the word chosen in Eval
// into the data/valid registers, like the upstream output register
// they stand in for, and words staged by enqueue during this cycle's
// Eval phase become queued — visible to the next cycle's presentation
// — in the commit sweep, so the hand-off is deterministic under every
// kernel.
func (p *tdmPresenter) Commit() {
	*p.data, *p.valid = p.next, p.nextValid
	for _, f := range p.flows {
		if len(f.staged) > 0 {
			f.queue = append(f.queue, f.staged...)
			f.staged = f.staged[:0]
		}
	}
	p.cycle++
}

// Quiescent implements sim.Quiescer: nothing queued or in flight on any
// flow. The valid register is always cleared before the port drains to
// this state, so skipping leaves no stale word on the wire.
func (p *tdmPresenter) Quiescent() bool {
	for _, f := range p.flows {
		if !f.idle() {
			return false
		}
	}
	return true
}

// IdleWindow implements sim.Quiescer.
func (p *tdmPresenter) IdleWindow(n uint64) { p.cycle += n }

// tdmPorts makes the TDM router's input-port presenters on first use,
// one per port, and registers each with the world as it is made. Both
// TDM harnesses attach every stream or flow to the presenter of the
// port it enters on, so the flows entering one port share its one
// data/valid register pair, as the router's input stage does.
type tdmPorts struct {
	r          *aethereal.Router
	w          *sim.World
	sinks      tdmSinks
	presenters []*tdmPresenter // in the order they were made
}

// flow attaches a flow from input port in to output port out, traced on
// the given track: words enqueued on it are presented in the slots the
// table reserves for (in,out), and deliveries are observed on output
// port out. The caller keeps each (in,out) pair to one flow.
func (t *tdmPorts) flow(in, out int, track string) *tdmFlow {
	var p *tdmPresenter
	for _, q := range t.presenters {
		if q.in == in {
			p = q
			break
		}
	}
	if p == nil {
		p = &tdmPresenter{r: t.r, in: in, data: new(uint32), valid: new(bool), tdmSinks: t.sinks}
		t.r.ConnectIn(in, p.data, p.valid)
		t.presenters = append(t.presenters, p)
		t.w.Add(p)
	}
	f := &tdmFlow{p: p, out: out, track: track}
	p.flows = append(p.flows, f)
	return f
}

// delivered sums the words every flow delivered.
func (t *tdmPorts) delivered() uint64 {
	var n uint64
	for _, p := range t.presenters {
		for _, f := range p.flows {
			n += f.delivered
		}
	}
	return n
}

// distinctPairs returns an error if two of n flows, whose ports pair
// returns, share one (in,out) port pair: the slot table books slots per
// pair, so a presenter could not tell the two apart.
func distinctPairs(n int, pair func(i int) (in, out core.Port)) error {
	seen := map[[2]core.Port]bool{}
	for i := 0; i < n; i++ {
		in, out := pair(i)
		if seen[[2]core.Port{in, out}] {
			return fmt.Errorf("traffic: TDM router: two flows from port %v to port %v", in, out)
		}
		seen[[2]core.Port{in, out}] = true
	}
	return nil
}

// RunTDM simulates the Æthereal-style TDM router under the scenario.
// Each stream gets a contention-free guaranteed-throughput reservation
// whose bandwidth share matches one circuit-switched lane: the TDM model
// forwards one word per reserved slot, so matching a lane's word per
// laneWordPeriod cycles takes that fraction of the table, rounded up (the
// 32-bit link has bandwidth to spare — the slot count, not the link
// width, is the limit). A stream that gets fewer slots fails the run,
// and so do two streams on one (in,out) pair; the streams entering one
// input port share its presenter (tdmPorts), which multiplexes them
// onto their slots. Words are then streamed through the reservations
// and metered; the latency series covers every delivered word, since
// the functional model observes every output port.
func RunTDM(ap aethereal.Params, sc Scenario, pat Pattern, cfg RunConfig) (Result, error) {
	if err := pat.Validate(); err != nil {
		return Result{}, err
	}
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if err := ap.Validate(); err != nil {
		return Result{}, err
	}
	if err := distinctPairs(len(sc.Streams), func(i int) (core.Port, core.Port) {
		return sc.Streams[i].In, sc.Streams[i].Out
	}); err != nil {
		return Result{}, err
	}
	r := aethereal.NewRouter(ap)
	meter := power.NewMeter(aethereal.Netlist(ap, cfg.Lib), cfg.Lib, cfg.FreqMHz)
	// The router ticks the meter itself (Commit and IdleWindow), so
	// finite scenarios fast-forward once their sources retire.
	r.BindMeter(meter)
	w := sim.NewWorld(cfg.worldOpts()...)
	w.Add(r)

	var res Result
	// The average toggling bits per forwarded word under the pattern's
	// flip probability, split over register, crossbar and link nets.
	sinks := tdmSinks{rec: stats.NewRecorder(cfg.Window), meter: meter,
		toggles: int(pat.FlipProb*patternWordBits + 0.5), tracer: cfg.Obs.Tracer}
	ports := &tdmPorts{r: r, w: w, sinks: sinks}
	slotsNeeded := (ap.Slots + laneWordPeriod - 1) / laneWordPeriod
	var sources []*Source
	for _, st := range sc.Streams {
		in, out := int(st.In), int(st.Out)
		slots, err := r.Table.ReserveSpread(in, out, slotsNeeded)
		if err != nil {
			return Result{}, err
		}
		if len(slots) < slotsNeeded {
			return Result{}, fmt.Errorf("traffic: TDM router: slot table full for stream %d (%d slots, %d streams)",
				st.ID, ap.Slots, len(sc.Streams))
		}
		src := NewSourceSeeded(pat, st.ID, cfg.Seed)
		sources = append(sources, src)
		// A word offered this cycle is staged through enqueue, merged at
		// the presenter's Commit and presentable the next cycle — the
		// registration order of offerer and presenter does not matter.
		// The words fall on cycles 0, 5, 10, ….
		flow := ports.flow(in, out, trackName(sinks.tracer, "stream%d.tdm", st.ID))
		w.Add(&streamOffer{src: src, limit: cfg.WordsPerStream, enqueue: flow.enqueue})
	}
	if err := r.Table.Validate(); err != nil {
		return Result{}, err
	}

	w.Run(cfg.Cycles)
	if cfg.Observe != nil {
		cfg.Observe(w)
	}

	for _, s := range sources {
		res.WordsSent += s.Sent()
	}
	res.WordsDelivered = ports.delivered()
	_, res.Latency = sinks.rec.Result()
	res.Power = meter.Report("aethereal / scenario " + sc.Name)
	res.Attribution = meter.AttributionSorted()
	return res, nil
}

var (
	_ sim.Quiescer = (*tdmPresenter)(nil)
	_ sim.Waker    = (*tdmPresenter)(nil)
)

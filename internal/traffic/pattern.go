package traffic

import (
	"fmt"

	"repro/internal/aethereal"
	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/packetsw"
	"repro/internal/pattern"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/sweep"
)

// This file holds the single-router pattern harnesses: the
// packet-switched and TDM models are single-router models, so a mesh
// traffic pattern reaches them as a port-to-port flow matrix — the
// projection pattern.PortFlows computes for the observed router. Every
// flow is driven by an event-scheduled pattern.Source and every helper
// component is quiescent when idle, so sparse pattern runs fast-forward
// under the production kernel with results byte-identical to the naive
// kernel.

// PatternPacketWords is the payload length of a synthetic-pattern
// packet on the packet-switched router: short packets keep the latency
// measurement responsive at low rates (the classic stream harness uses
// 16-word packets; synthetic-pattern studies conventionally use short
// fixed-length packets).
const PatternPacketWords = 4

// patternWordBits is the data word size all pattern rate and power
// accounting uses, matching the tile interface.
const patternWordBits = 16

// PatternRunResult is the outcome of a single-router pattern run.
type PatternRunResult struct {
	// Power is the three-bucket estimate; Attribution splits the
	// dynamic part by activity class.
	Power       power.Breakdown
	Attribution []power.AttributionEntry
	// WordsSent counts data words emitted by all flow sources;
	// WordsDelivered counts data words observed leaving the router at
	// an observable endpoint.
	WordsSent, WordsDelivered uint64
	// Latency is the in-run delivery latency distribution (injection to
	// observable delivery), in cycles, over the measurement window.
	Latency stats.Series
	// WarmupCycles is the effective warm-up of the latency
	// distribution: the configured truncation, or the MSER-detected
	// steady-state cycle. The single-router projections truncate
	// latency observations only; word counts stay full-run.
	WarmupCycles uint64
	// FlowsRequested and FlowsEstablished count the projected port
	// flows and how many the fabric could admit (slot-table capacity on
	// TDM; the packet router admits everything and queues instead).
	FlowsRequested, FlowsEstablished int
}

// latWarmupRec returns the cycle-stamped recorder a pattern run needs
// for warm-up truncation, or nil when no truncation was requested.
func latWarmupRec(cfg RunConfig) *stats.TimedSeries {
	if cfg.WarmupCycles > 0 || cfg.WarmupAuto {
		return &stats.TimedSeries{}
	}
	return nil
}

// applyLatWarmup resolves the effective warm-up cycle — configured, or
// MSER-5 steady-state detection — and replaces the aggregate latency
// distribution with the truncated window. No-op without a recorder.
func applyLatWarmup(cfg RunConfig, rec *stats.TimedSeries, lat *stats.Series) uint64 {
	if rec == nil {
		return 0
	}
	w := uint64(cfg.WarmupCycles)
	start := rec.TruncateCycle(w)
	if cfg.WarmupAuto && rec.Len() > 0 {
		start = rec.SteadyStateIndex(stats.MSERBatch)
		w = rec.CycleAt(start)
	}
	*lat = rec.SeriesFrom(start)
	return w
}

// flowRate converts a projected port-flow weight into this flow's
// absolute word rate, clamped to one word per cycle.
func flowRate(inj pattern.Injection, weight float64) float64 {
	r := inj.Rate * weight
	if r > 1 {
		r = 1
	}
	return r
}

// flowInjection builds the per-flow injection process: the shared
// process shape at the flow's own rate.
func flowInjection(inj pattern.Injection, rate float64) pattern.Injection {
	out := pattern.Injection{Proc: inj.Proc, Rate: rate}
	if inj.Proc == pattern.OnOff {
		out.Burstiness = inj.Burstiness
	}
	return out
}

// flowSeed derives one flow's RNG seed from the run seed and the flow's
// position, so flows are decorrelated but each is reproducible.
func flowSeed(base uint64, i int) uint64 {
	return sweep.Mix64(base + uint64(i)*0x9E3779B97F4A7C15 + 0xF10)
}

// ---------------------------------------------------------------------
// Packet-switched pattern harness
// ---------------------------------------------------------------------

// tileInjector stages queued flits into the router's tile port, one per
// cycle, retrying on backpressure. Quiescent when nothing is queued.
type tileInjector struct {
	r     *packetsw.Router
	queue []packetsw.Flit
}

// Eval implements sim.Clocked.
func (d *tileInjector) Eval() {
	if len(d.queue) == 0 {
		return
	}
	if d.r.Inject(d.queue[0]) {
		d.queue = d.queue[1:]
	}
}

// Commit implements sim.Clocked.
func (d *tileInjector) Commit() {}

// Quiescent implements sim.Quiescer.
func (d *tileInjector) Quiescent() bool { return len(d.queue) == 0 }

// IdleWindow implements sim.IdleWindower: an empty injector accrues no
// per-cycle state, so idle replay is a no-op, declared explicitly to
// satisfy the Quiescer contract checked by nocvet.
func (d *tileInjector) IdleWindow(n uint64) {}

// flitFeeder presents queued flits on an upstream input register, one
// per cycle — the stand-in for a neighbouring router's registered
// output. It only presents when the target VC's input FIFO has room
// (the credit path a real upstream router would observe), stalling the
// queue otherwise; a flit presented in the previous cycle is still in
// flight (it enters the FIFO at this cycle's Commit), so it counts
// against the room too — exact accounting that works at any Depth,
// including 1. dirty tracks a presented flit that still needs the
// register cleared, so the component never goes quiescent with stale
// data on the wire.
type flitFeeder struct {
	r      *packetsw.Router
	port   core.Port
	slot   *packetsw.Flit
	queue  []packetsw.Flit
	dirty  bool
	prevVC int // VC presented in the previous cycle, -1 if none
}

// Eval implements sim.Clocked.
func (d *flitFeeder) Eval() {
	*d.slot = packetsw.Flit{}
	d.dirty = false
	inFlight := d.prevVC
	d.prevVC = -1
	if len(d.queue) > 0 {
		vc := d.queue[0].VC
		backlog := d.r.InputBacklog(d.port, vc)
		if inFlight == vc {
			backlog++
		}
		if backlog < d.r.P.Depth {
			*d.slot = d.queue[0]
			d.queue = d.queue[1:]
			d.dirty = true
			d.prevVC = vc
		}
	}
}

// Commit implements sim.Clocked.
func (d *flitFeeder) Commit() {}

// Quiescent implements sim.Quiescer.
func (d *flitFeeder) Quiescent() bool { return len(d.queue) == 0 && !d.dirty }

// IdleWindow implements sim.IdleWindower: a drained feeder accrues no
// per-cycle state, so idle replay is a no-op, declared explicitly to
// satisfy the Quiescer contract checked by nocvet.
func (d *flitFeeder) IdleWindow(n uint64) {}

// patternDrain pops the router's tile ejection queue, counting data
// words and closing the latency measurement on tagged head flits. With
// warm-up accounting on, latency samples go to the cycle-stamped
// recorder so the transient can be truncated after the run.
type patternDrain struct {
	r         *packetsw.Router
	stamps    map[int]*[]uint64
	lat       *stats.Series
	rec       *stats.TimedSeries // non-nil when warm-up accounting is on
	delivered uint64
	cycle     uint64
}

// Eval implements sim.Clocked.
func (d *patternDrain) Eval() {
	for _, f := range d.r.Drain() {
		switch f.Kind {
		case packetsw.Body, packetsw.Tail:
			d.delivered++
		case packetsw.Head, packetsw.HeadTail:
			tag := int(f.Data >> 3)
			if q, ok := d.stamps[tag]; ok && len(*q) > 0 {
				lat := float64(d.cycle - (*q)[0])
				if d.rec != nil {
					d.rec.Add(d.cycle, lat)
				} else {
					d.lat.Add(lat)
				}
				*q = (*q)[1:]
			}
		}
	}
}

// Commit implements sim.Clocked.
func (d *patternDrain) Commit() { d.cycle++ }

// Quiescent implements sim.Quiescer: nothing ejected, nothing to drain.
func (d *patternDrain) Quiescent() bool { return d.r.EjectedPending() == 0 }

// IdleWindow implements sim.IdleWindower.
func (d *patternDrain) IdleWindow(n uint64) { d.cycle += n }

// feederQueueCap bounds a port driver's backlog, in packets: a source
// whose flow exceeds the port's capacity banks its words as source
// credits instead of growing the queue without bound.
const feederQueueCap = 8

// RunPacketPattern drives the packet-switched router with the projected
// port flows of a spatial pattern under the given injection process.
// Each flow generates fixed-length packets (PatternPacketWords payload
// words) on its own virtual channel; flows entering on the tile port
// are injected, flows entering on a mesh port are presented by feeder
// registers. Tile-bound packets close the latency measurement when
// their head flit is drained.
func RunPacketPattern(flows []pattern.PortFlow, inj pattern.Injection, flipProb float64, cfg RunConfig) (PatternRunResult, error) {
	if err := cfg.Validate(); err != nil {
		return PatternRunResult{}, err
	}
	if err := inj.Validate(); err != nil {
		return PatternRunResult{}, err
	}
	if flipProb < 0 || flipProb > 1 {
		return PatternRunResult{}, fmt.Errorf("traffic: flip probability %v out of [0,1]", flipProb)
	}
	pp := cfg.psParams()
	r := packetsw.NewRouter(pp, packetsw.PortRoute)
	meter := power.NewMeter(packetsw.Netlist(pp, cfg.Lib), cfg.Lib, cfg.FreqMHz)
	r.BindMeter(meter)

	w := sim.NewWorld(cfg.worldOpts()...)
	w.Add(r)

	var res PatternRunResult
	res.FlowsRequested = len(flows)
	if cfg.RetainLatency {
		// Warm-up accounting rebuilds the series from the timed record,
		// which always retains; this covers the direct path.
		res.Latency.Retain()
	}

	latRec := latWarmupRec(cfg)
	drain := &patternDrain{r: r, stamps: map[int]*[]uint64{}, lat: &res.Latency, rec: latRec}

	// One driver per distinct input port, in flow order (which is
	// port-major, so drivers come up in a deterministic order).
	tileDrv := (*tileInjector)(nil)
	feeders := map[core.Port]*flitFeeder{}
	perPortFlows := map[core.Port]int{}
	var sources []*pattern.Source

	for i, f := range flows {
		rate := flowRate(inj, f.Weight)
		if rate <= 0 {
			continue
		}
		res.FlowsEstablished++
		pktRate := rate / PatternPacketWords
		if pktRate > 1 {
			pktRate = 1
		}
		vc := perPortFlows[f.In] % pp.VCs
		perPortFlows[f.In]++

		var queue *[]packetsw.Flit
		if f.In == core.Tile {
			if tileDrv == nil {
				tileDrv = &tileInjector{r: r}
				w.Add(tileDrv)
			}
			queue = &tileDrv.queue
		} else {
			fd := feeders[f.In]
			if fd == nil {
				slot := new(packetsw.Flit)
				r.ConnectIn(f.In, slot)
				fd = &flitFeeder{r: r, port: f.In, slot: slot, prevVC: -1}
				feeders[f.In] = fd
				w.Add(fd)
			}
			queue = &fd.queue
		}

		tag := i
		stamps := new([]uint64)
		if f.Out == core.Tile {
			drain.stamps[tag] = stamps
		}
		gen := bitvec.NewFlipGen(patternWordBits, flipProb, flowSeed(cfg.Seed, i)^0xDA7A)
		out := f.Out
		src := pattern.NewSource(flowInjection(inj, pktRate), flowSeed(cfg.Seed, i), perFlowPacketCap(cfg.WordsPerStream), nil)
		src.Tracer = cfg.Obs.Tracer
		src.Track = fmt.Sprintf("flow%d.src", i)
		srcRef := src
		src.Emit = func() bool {
			if len(*queue) >= feederQueueCap*(PatternPacketWords+1) {
				return false
			}
			payload := make([]uint16, PatternPacketWords)
			for k := range payload {
				payload[k] = uint16(gen.Next())
			}
			head := uint16(tag)<<3 | packetsw.HeadData(out)
			*queue = append(*queue, packetsw.MakePacket(vc, head, payload)...)
			if out == core.Tile {
				*stamps = append(*stamps, srcRef.Cycle())
			}
			return true
		}
		w.Add(src)
		sources = append(sources, src)
	}
	w.Add(drain)

	w.Run(cfg.Cycles)
	if cfg.Observe != nil {
		cfg.Observe(w)
	}

	for _, s := range sources {
		res.WordsSent += s.Sent() * PatternPacketWords
	}
	res.WordsDelivered = drain.delivered
	res.WarmupCycles = applyLatWarmup(cfg, latRec, &res.Latency)
	res.Power = meter.Report("packet switched / pattern")
	res.Attribution = meter.AttributionSorted()
	return res, nil
}

// perFlowPacketCap converts a per-flow word budget into the packet
// budget a source retires at (rounded up to whole packets); 0 stays
// unlimited.
func perFlowPacketCap(words uint64) uint64 {
	if words == 0 {
		return 0
	}
	return (words + PatternPacketWords - 1) / PatternPacketWords
}

// ---------------------------------------------------------------------
// TDM pattern harness
// ---------------------------------------------------------------------

// tdmPending is one word queued at a TDM input with its injection
// stamp.
type tdmPending struct {
	word  uint32
	stamp uint64
}

// TDMFlow is one (in,out) flow multiplexed by a TDMPresenter: a queue
// of words waiting for the flow's reserved slots, the words in flight
// through the crossbar, and the flow's measurement sinks.
type TDMFlow struct {
	out      int
	reserved []bool       // per slot: this flow owns the slot
	staged   []tdmPending // enqueued this cycle; merged into queue at Commit
	queue    []tdmPending
	inFlight []tdmPending
	lat      *stats.Series
	rec      *stats.TimedSeries // non-nil when warm-up accounting is on
	toggles  int
	meter    *power.Meter
	wake     func() // the owning presenter's wake, set by AddFlow
	tracer   obs.Tracer
	track    string

	delivered uint64
}

// Trace routes this flow's injection and delivery events to a tracer
// under the given track name; a nil tracer leaves tracing disabled.
func (f *TDMFlow) Trace(t obs.Tracer, track string) {
	f.tracer = t
	f.track = track
}

// RecordTimed routes this flow's latency observations into a
// cycle-stamped recorder (for post-run warm-up truncation) instead of
// the aggregate series.
func (f *TDMFlow) RecordTimed(rec *stats.TimedSeries) { f.rec = rec }

// Enqueue queues one word for presentation, stamped with its injection
// cycle for the latency measurement. It is a staging mutator in the
// sim.Waker sense — sources invoke it from their Eval, so the word
// lands in a staging slice the presenter's Eval never reads (the
// two-phase contract), is merged at the presenter's Commit the same
// cycle whatever order the components were registered in, and becomes
// presentable the next cycle. The wake revises a skip decision already
// taken this cycle so that Commit actually runs.
func (f *TDMFlow) Enqueue(word uint32, stamp uint64) {
	f.staged = append(f.staged, tdmPending{word: word, stamp: stamp})
	if f.tracer != nil {
		f.tracer.Emit(obs.Event{Cycle: stamp, Track: f.track,
			Kind: obs.KindInject, Value: int64(f.out)})
	}
	if f.wake != nil {
		f.wake()
	}
}

// Backlog returns the number of words queued but not yet presented.
func (f *TDMFlow) Backlog() int { return len(f.staged) + len(f.queue) }

// Delivered returns the words observed crossing into the output
// register.
func (f *TDMFlow) Delivered() uint64 { return f.delivered }

// idle reports nothing staged, queued or in flight.
func (f *TDMFlow) idle() bool {
	return len(f.staged) == 0 && len(f.queue) == 0 && len(f.inFlight) == 0
}

// TDMPresenter owns one TDM input port's data/valid registers and
// multiplexes its flows onto their reserved slots. It also observes
// deliveries on each flow's output register — a word counts as
// delivered, records its latency and pays its ToggleReg/Gate/Link
// energy once it has crossed the crossbar into the output register —
// work the classic harness did in an every-cycle Func, here skippable
// whenever the port has nothing queued or in flight. It is the single
// implementation of the slot algorithm shared by the classic stream
// runner (noc.tdmStream feeds it through Enqueue) and the pattern
// harness (RunTDMPattern).
type TDMPresenter struct {
	r     *aethereal.Router
	in    int
	data  *uint32
	valid *bool
	flows []*TDMFlow
	cycle uint64
	wake  func()
}

// SetWake implements sim.Waker: Enqueue is a staging mutator invoked
// from a source component's Eval, so a skip decision already taken this
// cycle must be revised for the enqueued word to be presented on its
// own cycle, whatever order the components were registered in.
func (p *TDMPresenter) SetWake(fn func()) { p.wake = fn }

// NewTDMPresenter wires a presenter to the router's input port in and
// returns it; register it with the simulation world after the router.
func NewTDMPresenter(r *aethereal.Router, in int) *TDMPresenter {
	p := &TDMPresenter{r: r, in: in, data: new(uint32), valid: new(bool)}
	r.ConnectIn(in, p.data, p.valid)
	return p
}

// AddFlow attaches one flow to the presenter: words enqueued on the
// returned flow are presented in its reserved slots, and deliveries are
// observed on output port out, feeding the latency series and charging
// toggleBits per delivered word to the meter.
func (p *TDMPresenter) AddFlow(out int, reserved []bool, lat *stats.Series,
	toggleBits int, meter *power.Meter) *TDMFlow {
	f := &TDMFlow{out: out, reserved: reserved, lat: lat, toggles: toggleBits, meter: meter}
	f.wake = func() {
		if p.wake != nil {
			p.wake()
		}
	}
	p.flows = append(p.flows, f)
	return f
}

// Cycle returns the presenter's local clock, equal to the world clock.
func (p *TDMPresenter) Cycle() uint64 { return p.cycle }

// Eval implements sim.Clocked.
func (p *TDMPresenter) Eval() {
	slots := p.r.P.Slots
	// Observe the registered outputs first: the value visible now was
	// committed from the previous cycle's slot.
	prev := (p.r.Slot() - 1 + slots) % slots
	for _, f := range p.flows {
		if p.r.OutValid[f.out] && p.r.Table.Entry(prev, f.out) == p.in && len(f.inFlight) > 0 {
			head := f.inFlight[0]
			f.inFlight = f.inFlight[1:]
			f.delivered++
			lat := float64(p.cycle - head.stamp)
			if f.rec != nil {
				f.rec.Add(p.cycle, lat)
			} else {
				f.lat.Add(lat)
			}
			f.meter.AddToggles(power.ToggleReg, f.toggles)
			f.meter.AddToggles(power.ToggleGate, f.toggles)
			f.meter.AddToggles(power.ToggleLink, f.toggles)
			if f.tracer != nil {
				f.tracer.Emit(obs.Event{Cycle: p.cycle, Track: f.track,
					Kind: obs.KindDeliver, Value: int64(f.delivered)})
			}
		}
	}
	// The router's next Eval uses the slot after the current one;
	// present a word iff that slot belongs to one of this input's flows
	// and the flow has data queued.
	*p.valid = false
	upcoming := (p.r.Slot() + 1) % slots
	for _, f := range p.flows {
		if f.reserved[upcoming] && len(f.queue) > 0 {
			head := f.queue[0]
			f.queue = f.queue[1:]
			*p.data = head.word
			*p.valid = true
			f.inFlight = append(f.inFlight, head)
			break
		}
	}
}

// Commit implements sim.Clocked: words staged by Enqueue during this
// cycle's Eval phase become queued — visible to the next cycle's
// presentation — in the commit sweep, so the hand-off is deterministic
// under every kernel.
func (p *TDMPresenter) Commit() {
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
func (p *TDMPresenter) Quiescent() bool {
	for _, f := range p.flows {
		if !f.idle() {
			return false
		}
	}
	return true
}

// IdleWindow implements sim.IdleWindower.
func (p *TDMPresenter) IdleWindow(n uint64) { p.cycle += n }

// RunTDMPattern drives the Æthereal-style TDM router with the projected
// port flows of a spatial pattern. Each flow receives a slot-table
// reservation sized to its rate (ceil(rate×slots) slots, spread over
// the frame); flows the table cannot fully admit run degraded on
// whatever slots they got, and flows with no slots are not established
// — TDM's admission-time answer to overload, the analogue of the
// circuit fabric's lane blocking.
func RunTDMPattern(ap aethereal.Params, flows []pattern.PortFlow, inj pattern.Injection, flipProb float64, cfg RunConfig) (PatternRunResult, error) {
	if err := cfg.Validate(); err != nil {
		return PatternRunResult{}, err
	}
	if err := inj.Validate(); err != nil {
		return PatternRunResult{}, err
	}
	if err := ap.Validate(); err != nil {
		return PatternRunResult{}, err
	}
	if flipProb < 0 || flipProb > 1 {
		return PatternRunResult{}, fmt.Errorf("traffic: flip probability %v out of [0,1]", flipProb)
	}
	r := aethereal.NewRouter(ap)
	meter := power.NewMeter(aethereal.Netlist(ap, cfg.Lib), cfg.Lib, cfg.FreqMHz)
	r.BindMeter(meter)

	w := sim.NewWorld(cfg.worldOpts()...)
	w.Add(r)

	var res PatternRunResult
	res.FlowsRequested = len(flows)
	if cfg.RetainLatency {
		// Same arrangement as the packet harness: the direct path needs
		// retention switched on, the warm-up path always retains.
		res.Latency.Retain()
	}
	toggleBits := int(flipProb*patternWordBits + 0.5)
	latRec := latWarmupRec(cfg)

	presenters := map[int]*TDMPresenter{}
	var presenterOrder []*TDMPresenter
	var sources []*pattern.Source
	for i, f := range flows {
		rate := flowRate(inj, f.Weight)
		if rate <= 0 {
			continue
		}
		in, out := int(f.In), int(f.Out)
		slotsNeeded := int(rate*float64(ap.Slots) + 0.999999)
		if slotsNeeded < 1 {
			slotsNeeded = 1
		}
		reserved := make([]bool, ap.Slots)
		booked := 0
		stride := ap.Slots / slotsNeeded
		if stride < 1 {
			stride = 1
		}
		for k := 0; k < slotsNeeded; k++ {
			for probe := 0; probe < ap.Slots; probe++ {
				s := (k*stride + probe) % ap.Slots
				if r.Table.Entry(s, out) != aethereal.NoInput {
					continue
				}
				if r.Table.InputBusy(s, in) {
					continue
				}
				if err := r.Table.Reserve(s, in, out); err != nil {
					return PatternRunResult{}, err
				}
				reserved[s] = true
				booked++
				break
			}
		}
		if booked == 0 {
			continue // slot table full: flow not admitted
		}
		res.FlowsEstablished++

		pres := presenters[in]
		if pres == nil {
			pres = NewTDMPresenter(r, in)
			presenters[in] = pres
			presenterOrder = append(presenterOrder, pres)
			w.Add(pres)
		}
		fs := pres.AddFlow(out, reserved, &res.Latency, toggleBits, meter)
		if latRec != nil {
			fs.RecordTimed(latRec)
		}
		fs.Trace(cfg.Obs.Tracer, fmt.Sprintf("flow%d.tdm", i))

		gen := bitvec.NewFlipGen(patternWordBits, flipProb, flowSeed(cfg.Seed, i)^0xDA7A)
		src := pattern.NewSource(flowInjection(inj, rate), flowSeed(cfg.Seed, i), cfg.WordsPerStream, nil)
		src.Tracer = cfg.Obs.Tracer
		src.Track = fmt.Sprintf("flow%d.src", i)
		srcRef := src
		src.Emit = func() bool {
			if fs.Backlog() >= feederQueueCap*PatternPacketWords {
				return false
			}
			fs.Enqueue(uint32(uint16(gen.Next())), srcRef.Cycle())
			return true
		}
		w.Add(src)
		sources = append(sources, src)
	}
	if err := r.Table.Validate(); err != nil {
		return PatternRunResult{}, err
	}

	w.Run(cfg.Cycles)
	if cfg.Observe != nil {
		cfg.Observe(w)
	}

	for _, s := range sources {
		res.WordsSent += s.Sent()
	}
	for _, pres := range presenterOrder {
		for _, f := range pres.flows {
			res.WordsDelivered += f.Delivered()
		}
	}
	res.WarmupCycles = applyLatWarmup(cfg, latRec, &res.Latency)
	res.Power = meter.Report("aethereal / pattern")
	res.Attribution = meter.AttributionSorted()
	return res, nil
}

var (
	_ sim.Quiescer     = (*tileInjector)(nil)
	_ sim.Quiescer     = (*flitFeeder)(nil)
	_ sim.IdleWindower = (*patternDrain)(nil)
	_ sim.IdleWindower = (*TDMPresenter)(nil)
	_ sim.Waker        = (*TDMPresenter)(nil)
)

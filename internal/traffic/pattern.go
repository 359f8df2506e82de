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

// This file holds the single-router pattern harnesses, and the packet
// router's port drivers and drain that RunPacket shares with them: the
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

// PatternRunResult is the outcome of a single-router pattern run: the
// Result of a stream run, whose Latency is the in-run delivery latency
// distribution (injection to observable delivery) over the measurement
// window, plus the pattern's admission and warm-up figures.
type PatternRunResult struct {
	Result
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
func flowSeed(base uint64, i int) uint64 { return sweep.Seed(base+0xF10, i) }

// ---------------------------------------------------------------------
// Packet-switched harness: the port drivers and drain RunPacket shares,
// and the pattern runner
// ---------------------------------------------------------------------

// packetPorts makes the packet router's input-port drivers on first
// use, one per port: a tileInjector for the tile port and a flitFeeder
// on a fresh input register for each neighbour port. Both packet
// harnesses append every stream's or flow's flits to the queue of the
// driver of the port it enters on, so the streams entering one port
// share one flit per cycle, as its link does.
type packetPorts struct {
	r      *packetsw.Router
	queues map[core.Port]*[]packetsw.Flit
	made   []sim.Clocked // drivers made since the last register
}

func newPacketPorts(r *packetsw.Router) *packetPorts {
	return &packetPorts{r: r, queues: map[core.Port]*[]packetsw.Flit{}}
}

// queue returns the flit queue of port in's driver, making the driver
// on first use.
func (p *packetPorts) queue(in core.Port) *[]packetsw.Flit {
	if q := p.queues[in]; q != nil {
		return q
	}
	var q *[]packetsw.Flit
	if in == core.Tile {
		d := &tileInjector{r: p.r}
		p.made, q = append(p.made, d), &d.queue
	} else {
		d := &flitFeeder{r: p.r, port: in, slot: new(packetsw.Flit), prevVC: -1}
		p.r.ConnectIn(in, d.slot)
		p.made, q = append(p.made, d), &d.queue
	}
	p.queues[in] = q
	return q
}

// register adds the drivers made since the last call to the world, in
// the order they were made.
func (p *packetPorts) register(w *sim.World) {
	w.Add(p.made...)
	p.made = p.made[:0]
}

// popFlit removes and returns the oldest flit of a non-empty driver
// queue. An emptied queue restarts at the front of its remaining
// buffer: a stream driver empties its queue after nearly every word, and
// advancing past the last flit would leave appends no room, so each
// word would grow a new array.
func popFlit(q *[]packetsw.Flit) packetsw.Flit {
	f := (*q)[0]
	if len(*q) == 1 {
		*q = (*q)[:0]
	} else {
		*q = (*q)[1:]
	}
	return f
}

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
		popFlit(&d.queue)
	}
}

// Commit implements sim.Clocked.
func (d *tileInjector) Commit() {}

// Quiescent implements sim.Quiescer.
func (d *tileInjector) Quiescent() bool { return len(d.queue) == 0 }

// IdleWindow implements sim.Quiescer: an empty injector accrues no
// per-cycle state, so idle replay is a no-op.
func (d *tileInjector) IdleWindow(n uint64) {}

// flitFeeder presents queued flits on an upstream input register, one
// per cycle — the stand-in for a neighbouring router's registered
// output. Like that register it chooses its next flit in Eval and
// latches it in Commit, so the router samples the same flit whenever
// in the cycle its Eval runs. It only presents when the target VC's
// input FIFO has room (the credit path a real upstream router would
// observe), stalling the queue otherwise; a flit presented in the
// previous cycle is still in flight (it enters the FIFO at this
// cycle's Commit), so it counts against the room too — exact
// accounting that works at any Depth, including 1. dirty tracks a
// presented flit that still needs the register cleared, so the
// component never goes quiescent with stale data on the wire.
type flitFeeder struct {
	r      *packetsw.Router
	port   core.Port
	slot   *packetsw.Flit
	queue  []packetsw.Flit
	next   packetsw.Flit // the flit Commit latches into slot
	dirty  bool
	prevVC int // VC presented in the previous cycle, -1 if none
}

// Eval implements sim.Clocked: choose the flit to present next.
func (d *flitFeeder) Eval() {
	d.next = packetsw.Flit{}
	inFlight := d.prevVC
	d.prevVC = -1
	if len(d.queue) == 0 {
		return
	}
	vc := d.queue[0].VC
	backlog := d.r.InputBacklog(d.port, vc)
	if inFlight == vc {
		backlog++
	}
	if backlog < d.r.P.Depth {
		d.next = popFlit(&d.queue)
		d.prevVC = vc
	}
}

// Commit implements sim.Clocked: latch the chosen flit, or clear the
// register.
func (d *flitFeeder) Commit() {
	*d.slot = d.next
	d.dirty = d.next.Valid()
}

// Quiescent implements sim.Quiescer.
func (d *flitFeeder) Quiescent() bool { return len(d.queue) == 0 && !d.dirty }

// IdleWindow implements sim.Quiescer: a drained feeder accrues no
// per-cycle state, so idle replay is a no-op.
func (d *flitFeeder) IdleWindow(n uint64) {}

// patternDrain pops the packet router's tile ejection queue for both
// packet harnesses: it counts the data words delivered and closes the
// latency measurement of a head flit whose flow tag has an injection
// stamp waiting. It is quiescent while nothing is ejected.
type patternDrain struct {
	r         *packetsw.Router
	stamps    [][]uint64 // per flow tag: injection cycles of packets in flight
	rec       *stats.Recorder
	delivered uint64
	cycle     uint64

	// tracer, when non-nil, receives a deliver event per data word on
	// the tile.sink track.
	tracer obs.Tracer
}

// Eval implements sim.Clocked.
func (d *patternDrain) Eval() {
	for _, f := range d.r.Drain() {
		switch f.Kind {
		case packetsw.Body, packetsw.Tail:
			d.delivered++
			if d.tracer != nil {
				d.tracer.Emit(obs.Event{Cycle: d.cycle, Track: "tile.sink",
					Kind: obs.KindDeliver, Value: int64(d.delivered)})
			}
		case packetsw.Head, packetsw.HeadTail:
			if tag := int(f.Data >> 3); tag < len(d.stamps) && len(d.stamps[tag]) > 0 {
				d.rec.Add(d.cycle, float64(d.cycle-d.stamps[tag][0]))
				d.stamps[tag] = d.stamps[tag][1:]
			}
		}
	}
}

// Commit implements sim.Clocked.
func (d *patternDrain) Commit() { d.cycle++ }

// Quiescent implements sim.Quiescer: nothing ejected, nothing to drain.
func (d *patternDrain) Quiescent() bool { return d.r.EjectedPending() == 0 }

// IdleWindow implements sim.Quiescer: an empty drain accrues only its
// clock.
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
	drain := &patternDrain{r: r, stamps: make([][]uint64, len(flows)), rec: stats.NewRecorder(cfg.Window)}

	// One driver per distinct input port, each registered before the
	// sources of its first flow.
	ports := newPacketPorts(r)
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

		queue := ports.queue(f.In)
		ports.register(w)

		tag := i
		gen := bitvec.NewFlipGen(patternWordBits, flipProb, flowSeed(cfg.Seed, i)^0xDA7A)
		out := f.Out
		src := pattern.NewSource(flowInjection(inj, pktRate), flowSeed(cfg.Seed, i), wholePackets(cfg.WordsPerStream, PatternPacketWords))
		src.Tracer, src.Track = cfg.Obs.Tracer, trackName(cfg.Obs.Tracer, "flow%d.src", i)
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
				drain.stamps[tag] = append(drain.stamps[tag], srcRef.Cycle())
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
	res.WarmupCycles, res.Latency = drain.rec.Result()
	res.Power = meter.Report("packet switched / pattern")
	res.Attribution = meter.AttributionSorted()
	return res, nil
}

// ---------------------------------------------------------------------
// TDM pattern harness
// ---------------------------------------------------------------------

// RunTDMPattern drives the Æthereal-style TDM router with the projected
// port flows of a spatial pattern. Each flow receives a slot-table
// reservation sized to its rate (ceil(rate×slots) slots, spread over
// the frame); flows the table cannot fully admit run degraded on
// whatever slots they got, and flows with no slots are not established
// — TDM's admission-time answer to overload, the analogue of the
// circuit fabric's lane blocking. Flows must use distinct (in,out) port
// pairs: the slot table books slots per pair, not per flow.
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
	if err := distinctPairs(len(flows), func(i int) (core.Port, core.Port) {
		return flows[i].In, flows[i].Out
	}); err != nil {
		return PatternRunResult{}, err
	}
	r := aethereal.NewRouter(ap)
	meter := power.NewMeter(aethereal.Netlist(ap, cfg.Lib), cfg.Lib, cfg.FreqMHz)
	r.BindMeter(meter)

	w := sim.NewWorld(cfg.worldOpts()...)
	w.Add(r)

	var res PatternRunResult
	res.FlowsRequested = len(flows)
	sinks := tdmSinks{rec: stats.NewRecorder(cfg.Window), meter: meter,
		toggles: int(flipProb*patternWordBits + 0.5), tracer: cfg.Obs.Tracer}

	ports := &tdmPorts{r: r, w: w, sinks: sinks}
	var sources []*pattern.Source
	for i, f := range flows {
		rate := flowRate(inj, f.Weight)
		if rate <= 0 {
			continue
		}
		in, out := int(f.In), int(f.Out)
		slotsNeeded := max(int(rate*float64(ap.Slots)+0.999999), 1)
		slots, err := r.Table.ReserveSpread(in, out, slotsNeeded)
		if err != nil {
			return PatternRunResult{}, err
		}
		if len(slots) == 0 {
			continue // slot table full: flow not admitted
		}
		res.FlowsEstablished++

		fs := ports.flow(in, out, trackName(sinks.tracer, "flow%d.tdm", i))

		gen := bitvec.NewFlipGen(patternWordBits, flipProb, flowSeed(cfg.Seed, i)^0xDA7A)
		src := pattern.NewSource(flowInjection(inj, rate), flowSeed(cfg.Seed, i), cfg.WordsPerStream)
		src.Tracer, src.Track = sinks.tracer, trackName(sinks.tracer, "flow%d.src", i)
		srcRef := src
		src.Emit = func() bool {
			if fs.backlog() >= feederQueueCap*PatternPacketWords {
				return false
			}
			fs.enqueue(uint32(uint16(gen.Next())), srcRef.Cycle())
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
	res.WordsDelivered = ports.delivered()
	res.WarmupCycles, res.Latency = sinks.rec.Result()
	res.Power = meter.Report("aethereal / pattern")
	res.Attribution = meter.AttributionSorted()
	return res, nil
}

var (
	_ sim.Quiescer = (*tileInjector)(nil)
	_ sim.Quiescer = (*flitFeeder)(nil)
	_ sim.Quiescer = (*patternDrain)(nil)
)

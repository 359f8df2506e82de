package mesh

import (
	"fmt"
	"sync"

	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pattern"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/stdcell"
	"repro/internal/sweep"
)

// PatternConfig drives one synthetic-traffic run on a W×H
// circuit-switched mesh: a spatial pattern chooses each node's
// destination, a temporal injection process times its words, and every
// source is an event-scheduled component, so sparse runs fast-forward
// under sim.KernelEvent.
type PatternConfig struct {
	// W and H are the mesh dimensions.
	W, H int
	// Cycles is the simulated length.
	Cycles int
	// FreqMHz is the network clock.
	FreqMHz float64
	// Lib is the technology library for the power meters.
	Lib stdcell.Lib
	// Gated enables configuration-driven clock gating on every router.
	Gated bool
	// Spatial chooses each node's destination.
	Spatial pattern.Spatial
	// Injection times each node's words.
	Injection pattern.Injection
	// FlipProb is the expected bit-flip fraction of consecutive data
	// words (the paper's data knob).
	FlipProb float64
	// Seed decorrelates runs; every flow derives its own streams.
	Seed uint64
	// WordsPerFlow caps each flow's words; 0 = unlimited. Exhausted
	// sources retire, and once the network drains the event kernel
	// fast-forwards the rest of the run.
	WordsPerFlow uint64
	// WarmupCycles truncates the measurement window: words injected or
	// delivered before this cycle are excluded from the aggregate
	// counts and the latency distribution (per-flow counts stay
	// full-run), so open-loop statistics are not biased by the
	// empty-network startup transient. Throughput should be computed
	// over the MeasuredCycles the result reports.
	WarmupCycles int
	// WarmupAuto detects the warm-up automatically with the MSER-5
	// steady-state rule over the delivery-latency sequence. Mutually
	// exclusive with WarmupCycles.
	WarmupAuto bool
	// Params overrides the router geometry (nil: paper defaults).
	Params *core.Params
	// Kernel selects the simulation kernel.
	Kernel sim.Kernel
	// SimWorkers bounds the goroutine pool the active kernel shards its
	// Eval sweep over (0 = GOMAXPROCS, 1 = sequential). Results are
	// byte-identical for every value; other kernels ignore it.
	SimWorkers int
	// Observe, when non-nil, receives the world after the run — kernel
	// diagnostics for tests and benchmarks. It must not mutate it.
	Observe func(*sim.World)
	// Obs carries the run's observability sinks: a structured event
	// tracer (flow setup, admission blocks, injections, deliveries,
	// kernel scheduling) and a metrics registry (lane-allocator probes
	// and rejections). The zero value disables both; enabling them never
	// changes the simulated result.
	Obs obs.Hooks
	// RetainLatency keeps the raw per-word latency observations on the
	// result's Latency series (Samples), so replicated runs can pool
	// them into one distribution. Off by default: a plain run only needs
	// the summary moments.
	RetainLatency bool
}

// Validate checks the configuration.
func (c PatternConfig) Validate() error {
	if c.W < 2 || c.H < 2 {
		return fmt.Errorf("mesh: pattern run needs at least a 2x2 mesh, have %dx%d", c.W, c.H)
	}
	if c.Cycles < 1 {
		return fmt.Errorf("mesh: need at least 1 cycle")
	}
	if c.FreqMHz <= 0 {
		return fmt.Errorf("mesh: non-positive frequency")
	}
	if c.FlipProb < 0 || c.FlipProb > 1 {
		return fmt.Errorf("mesh: flip probability %v out of [0,1]", c.FlipProb)
	}
	if err := c.Injection.Validate(); err != nil {
		return err
	}
	if c.WarmupCycles < 0 || c.WarmupCycles >= c.Cycles {
		return fmt.Errorf("mesh: warm-up %d out of [0, cycles=%d)", c.WarmupCycles, c.Cycles)
	}
	if c.WarmupCycles > 0 && c.WarmupAuto {
		return fmt.Errorf("mesh: explicit warm-up and auto-detection are mutually exclusive")
	}
	if c.Params != nil {
		if err := c.Params.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// PatternFlow is the outcome of one source→destination flow.
type PatternFlow struct {
	// Src and Dst are the endpoints.
	Src, Dst Coord
	// Hops is the route length in routers (0 when not established).
	Hops int
	// Established reports whether a lane path was available; circuit
	// switching admits traffic at setup time, so a pattern that
	// overloads a region (hotspot) shows up as rejected flows here,
	// not as queueing collapse.
	Established bool
	// WordsSent and WordsDelivered count the flow's traffic.
	WordsSent, WordsDelivered uint64
}

// PatternResult is the outcome of a mesh pattern run.
type PatternResult struct {
	// FlowsRequested and FlowsEstablished count the pattern's flows and
	// how many the lane allocator could route.
	FlowsRequested, FlowsEstablished int
	// WordsSent and WordsDelivered aggregate all flows over the
	// measurement window (the whole run without warm-up truncation).
	WordsSent, WordsDelivered uint64
	// Latency is the word-delivery latency distribution across all
	// established flows (source push to destination pop), over the
	// measurement window.
	Latency stats.Series
	// WarmupCycles is the effective warm-up: the explicit
	// configuration, or the MSER-detected truncation cycle. The
	// aggregate counts and Latency cover only [WarmupCycles, Cycles);
	// per-flow counts remain full-run.
	WarmupCycles uint64
	// MeasuredCycles is Cycles minus the warm-up — the window
	// throughput figures must divide by.
	MeasuredCycles uint64
	// Power aggregates every node meter; PerNode keeps them separate in
	// row-major order.
	Power   power.Breakdown
	PerNode []power.Breakdown
	// LaneUtilization is the fraction of the mesh's output lanes
	// reserved by established flows.
	LaneUtilization float64
	// Flows describes every requested flow, in source order.
	Flows []PatternFlow
}

// laneAlloc is the harness's single-lane circuit allocator: the same
// XY-then-YX probing the CCN uses, reduced to one lane per flow. (The
// CCN itself lives above this package and cannot be imported here.)
type laneAlloc struct {
	m      *Mesh
	used   [][]bool // per node, per global output lane
	tileIn [][]bool // per node, per tile input (transmit converter) lane

	// Optional establishment metrics (nil when metrics are disabled):
	// route probes attempted, flows rejected, hop counts of established
	// routes.
	probes  *obs.Counter
	rejects *obs.Counter
	hops    *obs.Histogram
}

func newLaneAlloc(m *Mesh, metrics *obs.Registry) *laneAlloc {
	a := &laneAlloc{
		m:       m,
		probes:  metrics.Counter("mesh.alloc.probes"),
		rejects: metrics.Counter("mesh.alloc.rejections"),
		hops:    metrics.Histogram("mesh.alloc.hops"),
	}
	for i := 0; i < m.Nodes(); i++ {
		a.used = append(a.used, make([]bool, m.P.TotalLanes()))
		a.tileIn = append(a.tileIn, make([]bool, m.P.LanesPerPort))
	}
	return a
}

func (a *laneAlloc) idx(c Coord) int { return c.Y*a.m.W + c.X }

// establish reserves and configures a single-lane circuit along the
// XY route (falling back to YX) and returns the endpoint converters.
//
// Endpoint admission runs first: both candidate routes start at the
// source's tile input and end at the destination's tile output, so a
// flow that cannot get either lane cannot be established on any route.
// Rejecting it here costs O(1) instead of two O(route) probes with
// their reservation bookkeeping — the cost that used to dominate short
// saturated pattern runs (a 64×64 hotspot run probes the full
// mesh-radius route twice for every one of ~4k doomed flows before
// failing at the same exhausted destination port every time).
func (a *laneAlloc) establish(src, dst Coord) (*core.TxConverter, *core.RxConverter, int, error) {
	if a.freeTileIn(src) < 0 {
		if a.rejects != nil {
			a.rejects.Add(1)
		}
		return nil, nil, 0, fmt.Errorf("mesh: no free tile input lane at %v", src)
	}
	if a.freeLane(dst, core.Tile) < 0 {
		if a.rejects != nil {
			a.rejects.Add(1)
		}
		return nil, nil, 0, fmt.Errorf("mesh: no free tile output lane at %v", dst)
	}
	routes := [][]Coord{XYPath(src, dst), yxPath(src, dst)}
	var lastErr error
	for _, route := range routes {
		if a.probes != nil {
			a.probes.Add(1)
		}
		tx, rx, err := a.tryRoute(route)
		if err == nil {
			if a.hops != nil {
				a.hops.Observe(uint64(len(route) - 1))
			}
			return tx, rx, len(route) - 1, nil
		}
		lastErr = err
	}
	if a.rejects != nil {
		a.rejects.Add(1)
	}
	return nil, nil, 0, lastErr
}

// yxPath is the Y-then-X alternative to XYPath.
func yxPath(from, to Coord) []Coord {
	mid := Coord{X: from.X, Y: to.Y}
	path := XYPath(from, mid)
	rest := XYPath(mid, to)
	return append(path, rest[1:]...)
}

// tryRoute reserves one free lane on every hop of the route and
// configures the circuits; on failure nothing is reserved.
func (a *laneAlloc) tryRoute(route []Coord) (*core.TxConverter, *core.RxConverter, error) {
	type reservation struct {
		node int
		lane int // global output lane, or -1 for a tile input
		tin  int
	}
	var reserved []reservation
	release := func() {
		for _, r := range reserved {
			if r.lane >= 0 {
				a.used[r.node][r.lane] = false
			} else {
				a.tileIn[r.node][r.tin] = false
			}
		}
	}
	p := a.m.P

	// Source tile input lane.
	srcIdx := a.idx(route[0])
	tin := a.freeTileIn(route[0])
	if tin < 0 {
		return nil, nil, fmt.Errorf("mesh: no free tile input lane at %v", route[0])
	}
	a.tileIn[srcIdx][tin] = true
	reserved = append(reserved, reservation{node: srcIdx, lane: -1, tin: tin})

	type seg struct {
		node Coord
		circ core.Circuit
	}
	var segs []seg
	inLane := core.LaneID{Port: core.Tile, Lane: tin}
	for h := 0; h < len(route)-1; h++ {
		node, next := route[h], route[h+1]
		outPort, err := PortTowards(node, next)
		if err != nil {
			release()
			return nil, nil, err
		}
		l := a.freeLane(node, outPort)
		if l < 0 {
			release()
			return nil, nil, fmt.Errorf("mesh: no free lane %v -> %v", node, next)
		}
		gl := p.Global(core.LaneID{Port: outPort, Lane: l})
		a.used[a.idx(node)][gl] = true
		reserved = append(reserved, reservation{node: a.idx(node), lane: gl})
		segs = append(segs, seg{node: node, circ: core.Circuit{
			In:  inLane,
			Out: core.LaneID{Port: outPort, Lane: l},
		}})
		inLane = core.LaneID{Port: outPort.Opposite(), Lane: l}
	}
	// Destination tile output lane.
	dstC := route[len(route)-1]
	l := a.freeLane(dstC, core.Tile)
	if l < 0 {
		release()
		return nil, nil, fmt.Errorf("mesh: no free tile output lane at %v", dstC)
	}
	gl := p.Global(core.LaneID{Port: core.Tile, Lane: l})
	a.used[a.idx(dstC)][gl] = true
	reserved = append(reserved, reservation{node: a.idx(dstC), lane: gl})
	segs = append(segs, seg{node: dstC, circ: core.Circuit{
		In:  inLane,
		Out: core.LaneID{Port: core.Tile, Lane: l},
	}})

	// Configure the routers and enable the endpoint converters.
	for i, s := range segs {
		asm := a.m.At(s.node)
		if err := asm.R.Configure(s.circ); err != nil {
			release()
			return nil, nil, err
		}
		if i == 0 && s.circ.In.Port == core.Tile {
			asm.Tx[s.circ.In.Lane].Enabled = true
		}
		if i == len(segs)-1 && s.circ.Out.Port == core.Tile {
			asm.Rx[s.circ.Out.Lane].Enabled = true
		}
	}
	return a.m.At(route[0]).Tx[tin], a.m.At(dstC).Rx[l], nil
}

// freeTileIn returns a free tile input (transmit converter) lane index
// at the node, or -1.
func (a *laneAlloc) freeTileIn(node Coord) int {
	for l, used := range a.tileIn[a.idx(node)] {
		if !used {
			return l
		}
	}
	return -1
}

// freeLane returns a free lane index on the node's port, or -1.
func (a *laneAlloc) freeLane(node Coord, port core.Port) int {
	p := a.m.P
	for l := 0; l < p.LanesPerPort; l++ {
		if !a.used[a.idx(node)][p.Global(core.LaneID{Port: port, Lane: l})] {
			return l
		}
	}
	return -1
}

// utilization returns the reserved fraction of all output lanes.
func (a *laneAlloc) utilization() float64 {
	total, used := 0, 0
	for _, lanes := range a.used {
		for _, u := range lanes {
			total++
			if u {
				used++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(used) / float64(total)
}

// flowStamps carries one flow's injection timestamps from its source to
// its sink. Both endpoints touch it during the Eval phase — the source
// appends from Emit, the sink pops — and under the active kernel's
// sharded sweep those Evals may run concurrently, so the queue carries
// its own lock. Per-flow FIFO order is exact: the flow is a single
// circuit lane, words cannot overtake.
type flowStamps struct {
	mu sync.Mutex
	q  []uint64
}

func (s *flowStamps) push(c uint64) {
	s.mu.Lock()
	s.q = append(s.q, c)
	s.mu.Unlock()
}

func (s *flowStamps) pop() (uint64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.q) == 0 {
		return 0, false
	}
	c := s.q[0]
	s.q = s.q[1:]
	return c, true
}

// patternSink drains one flow's receive converter and records each
// word's delivery latency. It is a first-class quiescent component:
// while the converter buffer is empty, popping is a no-op and the
// kernel skips the sink, so a drained mesh quiesces end to end. With
// warm-up accounting on, samples go to the cycle-stamped recorder so
// the transient can be truncated after the run; otherwise they
// accumulate directly. The recorder and series are shared by every
// sink in the run, so samples are recorded in the sequential Commit
// phase — in registration order, the same accumulation order under
// every kernel and shard count — never in the (possibly parallel)
// Eval phase.
type patternSink struct {
	rx     *core.RxConverter
	stamps *flowStamps
	lat    *stats.Series
	rec    *stats.TimedSeries // non-nil when warm-up accounting is on
	cycle  uint64
	popped uint64

	pendingLat float64
	hasPending bool

	// tracer, when non-nil, receives a domain-scope deliver event per
	// drained word on the track name. Emission happens in Commit — the
	// sequential phase — so the stream is identical under every kernel
	// and shard count.
	tracer obs.Tracer
	track  string
}

// Eval implements sim.Clocked.
func (d *patternSink) Eval() {
	if _, ok := d.rx.Pop(); ok {
		if c, ok := d.stamps.pop(); ok {
			d.pendingLat = float64(d.cycle - c)
			d.hasPending = true
		}
		d.popped++
	}
}

// Commit implements sim.Clocked.
func (d *patternSink) Commit() {
	if d.hasPending {
		if d.rec != nil {
			d.rec.Add(d.cycle, d.pendingLat)
		} else {
			d.lat.Add(d.pendingLat)
		}
		if d.tracer != nil {
			d.tracer.Emit(obs.Event{Cycle: d.cycle, Track: d.track,
				Kind: obs.KindDeliver, Value: int64(d.pendingLat)})
		}
		d.hasPending = false
	}
	d.cycle++
}

// TraceName implements sim.TraceNamer.
func (d *patternSink) TraceName() string { return d.track }

// Quiescent implements sim.Quiescer: nothing buffered, nothing to pop.
func (d *patternSink) Quiescent() bool { return d.rx.Available() == 0 }

// IdleTick implements sim.IdleTicker: track skipped cycles.
func (d *patternSink) IdleTick() { d.cycle++ }

// IdleWindow implements sim.IdleWindower.
func (d *patternSink) IdleWindow(n uint64) { d.cycle += n }

// patternSource drives one established flow: the event-scheduled
// injection source plus the flow-local stream state its Emit closure
// feeds — the data-word generator, the in-flight injection stamps and
// the warm-up injection record. Embedding *pattern.Source forwards the
// kernel interfaces (sim.Clocked, Quiescer, IdleWindower, Timed); the
// wrapper adds the flow's trace name.
type patternSource struct {
	*pattern.Source
	gen    *bitvec.FlipGen
	stamps *flowStamps
	sent   []uint64 // injection stamps, warm-up accounting only
}

// TraceName implements sim.TraceNamer.
func (s *patternSource) TraceName() string { return s.Source.Track }

// liveFlow is one established flow's simulation handles.
type liveFlow struct {
	src  *patternSource
	sink *patternSink
	idx  int
}

// RunPattern simulates the pattern on a W×H circuit-switched mesh. Each
// flow of the spatial pattern gets a single-lane circuit (XY then YX
// probing); flows the allocator cannot route are reported as not
// established — the circuit fabric's admission-time answer to
// overload. Established flows are driven by event-scheduled
// pattern.Sources and drained by quiescent sinks, so a sparse run
// fast-forwards between words under sim.KernelEvent with results
// byte-identical to the gated and naive kernels.
func RunPattern(cfg PatternConfig) (*PatternResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p := core.DefaultParams()
	if cfg.Params != nil {
		p = *cfg.Params
	}
	m := New(cfg.W, cfg.H, p, core.DefaultAssemblyOptions(),
		sim.WithKernel(cfg.Kernel), sim.WithParallelism(cfg.SimWorkers),
		sim.WithTracer(cfg.Obs.Tracer))
	res := &PatternResult{}
	dom := m.BindMeters(cfg.Lib, cfg.FreqMHz, cfg.Gated)
	alloc := newLaneAlloc(m, cfg.Obs.Metrics)

	if cfg.RetainLatency {
		// The sinks feed res.Latency directly; under warm-up accounting
		// the series is rebuilt from the timed record, which always
		// retains.
		res.Latency.Retain()
	}
	flows := cfg.Spatial.Flows(cfg.W, cfg.H, cfg.Seed)
	res.FlowsRequested = len(flows)

	// Warm-up accounting: cycle-stamped latency samples and injection
	// stamps, collected only when a measurement window is requested so
	// the default path stays allocation-free. Injection stamps are
	// collected per flow (each source's Eval appends to its own slice,
	// so the sharded sweep races on nothing) and only counted after the
	// run.
	warmup := cfg.WarmupCycles > 0 || cfg.WarmupAuto
	var latRec *stats.TimedSeries
	if warmup {
		latRec = &stats.TimedSeries{}
	}

	tracer := cfg.Obs.Tracer
	var live []liveFlow
	for _, f := range flows {
		srcC := Coord{X: f.Src % cfg.W, Y: f.Src / cfg.W}
		dstC := Coord{X: f.Dst % cfg.W, Y: f.Dst / cfg.W}
		pf := PatternFlow{Src: srcC, Dst: dstC}
		flowIdx := len(res.Flows)
		tx, rx, hops, err := alloc.establish(srcC, dstC)
		if err != nil {
			if tracer != nil {
				tracer.Emit(obs.Event{Track: "mesh.flows",
					Kind: obs.KindAdmissionBlock, Value: int64(flowIdx),
					Detail: fmt.Sprintf("%v->%v", srcC, dstC)})
			}
			res.Flows = append(res.Flows, pf)
			continue
		}
		pf.Established = true
		pf.Hops = hops
		res.FlowsEstablished++
		if tracer != nil {
			tracer.Emit(obs.Event{Track: "mesh.flows",
				Kind: obs.KindFlowSetup, Value: int64(flowIdx),
				Detail: fmt.Sprintf("%v->%v hops=%d", srcC, dstC, hops)})
		}

		// Per-flow deterministic streams: data words and arrival times
		// both derive from the run seed and the flow's source node.
		flowSeed := sweep.Mix64(cfg.Seed + uint64(f.Src)*0x9E3779B97F4A7C15)
		ms := &patternSource{
			gen:    bitvec.NewFlipGen(16, cfg.FlipProb, flowSeed^0xDA7A),
			stamps: &flowStamps{},
		}
		src := pattern.NewSource(cfg.Injection, flowSeed, cfg.WordsPerFlow, nil)
		src.Emit = func() bool {
			if !tx.Ready() {
				return false
			}
			if !tx.Push(core.DataWord(uint16(ms.gen.Next()))) {
				return false
			}
			ms.stamps.push(src.Cycle())
			if warmup {
				ms.sent = append(ms.sent, src.Cycle())
			}
			return true
		}
		ms.Source = src
		src.Tracer = tracer
		src.Track = fmt.Sprintf("flow%d.src", flowIdx)
		sink := &patternSink{rx: rx, stamps: ms.stamps, lat: &res.Latency, rec: latRec,
			tracer: tracer, track: fmt.Sprintf("flow%d.sink", flowIdx)}
		m.World().Add(ms, sink)
		// Parking contract: the source is self-scheduled (woken only by
		// its own NextEvent), the sink's quiescence ends only when its
		// destination assembly commits a delivery into the receive
		// converter.
		m.World().DependsOn(ms)
		m.World().DependsOn(sink, m.At(dstC))
		live = append(live, liveFlow{src: ms, sink: sink, idx: len(res.Flows)})
		res.Flows = append(res.Flows, pf)
	}

	m.Run(cfg.Cycles)
	if cfg.Observe != nil {
		cfg.Observe(m.World())
	}
	for _, lf := range live {
		pf := &res.Flows[lf.idx]
		pf.WordsSent = lf.src.Sent()
		pf.WordsDelivered = lf.sink.popped
		res.WordsSent += pf.WordsSent
		res.WordsDelivered += pf.WordsDelivered
	}
	res.MeasuredCycles = uint64(cfg.Cycles)
	if warmup {
		// Resolve the effective warm-up cycle — configured, or the
		// MSER-5 steady-state truncation of the delivery-latency
		// sequence — then recompute the aggregate statistics over the
		// measurement window. Per-flow counts stay full-run.
		w := uint64(cfg.WarmupCycles)
		start := latRec.TruncateCycle(w)
		if cfg.WarmupAuto && latRec.Len() > 0 {
			start = latRec.SteadyStateIndex(stats.MSERBatch)
			w = latRec.CycleAt(start)
		}
		res.Latency = latRec.SeriesFrom(start)
		res.WarmupCycles = w
		res.MeasuredCycles = uint64(cfg.Cycles) - w
		res.WordsDelivered = uint64(latRec.Len() - start)
		var sent uint64
		for _, lf := range live {
			for _, c := range lf.src.sent {
				if c >= w {
					sent++
				}
			}
		}
		res.WordsSent = sent
	}
	res.LaneUtilization = alloc.utilization()
	res.Power = dom.Report(fmt.Sprintf("pattern %v x %v", cfg.Spatial, cfg.Injection))
	res.PerNode = dom.PerNode("pattern node")
	return res, nil
}

var _ sim.IdleWindower = (*patternSink)(nil)
var _ sim.Quiescer = (*patternSink)(nil)

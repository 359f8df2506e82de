package mesh

import (
	"fmt"
	"math"

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
// between arrivals under the production kernel.
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
	// sources retire, and once the network drains the kernel
	// fast-forwards the rest of the run.
	WordsPerFlow uint64
	// Window is the measurement window: a warm-up cut excludes the
	// words injected or delivered before it from the aggregate counts
	// and the latency distribution (per-flow counts stay full-run), so
	// open-loop statistics are not biased by the empty-network startup
	// transient, and Retain keeps the raw per-word latencies for
	// pooling. RunPattern reads it. Throughput should be computed over
	// the MeasuredCycles the result reports.
	Window stats.Window
	// Params overrides the router geometry (nil: paper defaults).
	Params *core.Params
	// Kernel selects the simulation kernel (zero value: the production
	// kernel, sim.KernelActive).
	Kernel sim.Kernel
	// Observe, when non-nil, receives the world after the run — kernel
	// diagnostics for tests and benchmarks. It must not mutate it.
	Observe func(*sim.World)
	// Obs carries the run's observability sinks: a structured event
	// tracer (flow setup, admission blocks, injections, deliveries,
	// kernel scheduling) and a metrics registry (lane-allocator probes
	// and rejections). The zero value disables both; enabling them never
	// changes the simulated result.
	Obs obs.Hooks
}

// Validate checks the configuration.
func (c PatternConfig) Validate() error {
	if c.W < 2 || c.H < 2 {
		return fmt.Errorf("mesh: pattern run needs at least a 2x2 mesh, have %dx%d", c.W, c.H)
	}
	if c.Cycles < 1 {
		return fmt.Errorf("mesh: need at least 1 cycle")
	}
	if !(c.FreqMHz > 0) || math.IsInf(c.FreqMHz, 1) {
		return fmt.Errorf("mesh: frequency %v must be finite and positive", c.FreqMHz)
	}
	if !(c.FlipProb >= 0 && c.FlipProb <= 1) {
		return fmt.Errorf("mesh: flip probability %v out of [0,1]", c.FlipProb)
	}
	if err := c.Injection.Validate(); err != nil {
		return err
	}
	if err := c.Window.Check(c.Cycles); err != nil {
		return fmt.Errorf("mesh: %w", err)
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
	// reserved by established flows, tile ports and edge ports without
	// a neighbour included (LaneBook.LaneUtilization).
	LaneUtilization float64
	// Flows describes every requested flow, in source order.
	Flows []PatternFlow
}

// flowStamps carries one flow's injection timestamps from its source to
// its sink. Both endpoints touch it during the Eval phase — the source
// appends from Emit, the sink pops. Per-flow FIFO order is exact: the
// flow is a single circuit lane, words cannot overtake.
type flowStamps struct {
	q []uint64
}

func (s *flowStamps) push(c uint64) { s.q = append(s.q, c) }

func (s *flowStamps) pop() (uint64, bool) {
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
// kernel skips the sink, so a drained mesh quiesces end to end. The
// recorder is shared by every sink in the run, so samples are recorded
// in the Commit phase — in registration order, the same accumulation
// order under every kernel — never in the Eval phase, where a wake may
// run a missed Eval out of registration order.
type patternSink struct {
	rx     *core.RxConverter
	stamps *flowStamps
	rec    *stats.Recorder
	cycle  uint64
	popped uint64

	pendingLat float64
	hasPending bool

	// tracer, when non-nil, receives a domain-scope deliver event per
	// drained word on the track name. Emission happens in Commit, in
	// registration order, so the stream is identical under every kernel.
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
		d.rec.Add(d.cycle, d.pendingLat)
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

// IdleWindow implements sim.Quiescer: track skipped cycles.
func (d *patternSink) IdleWindow(n uint64) { d.cycle += n }

// patternSource drives one established flow: the event-scheduled
// injection source plus the flow-local stream state its Emit closure
// feeds — the data-word generator, the in-flight injection stamps and
// the warm-up injection record. Embedding *pattern.Source forwards the
// kernel interfaces (sim.Clocked, Timed); the wrapper adds the flow's
// trace name.
type patternSource struct {
	*pattern.Source
	gen    *bitvec.FlipGen
	stamps *flowStamps
	sent   []uint64 // injection stamps, only when the window cuts
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
// flow of the spatial pattern gets a single-lane circuit reserved in the
// run's LaneBook (XY then YX probing, as the CCN maps channels); flows
// the book cannot route are reported as not established — the circuit
// fabric's admission-time answer to overload. Established flows are driven by event-scheduled
// pattern.Sources and drained by quiescent sinks, so a sparse run
// fast-forwards between words under the production kernel with results
// byte-identical to the naive kernel.
func RunPattern(cfg PatternConfig) (*PatternResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p := core.DefaultParams()
	if cfg.Params != nil {
		p = *cfg.Params
	}
	m := New(cfg.W, cfg.H, p, core.DefaultAssemblyOptions(),
		sim.WithKernel(cfg.Kernel), sim.WithTracer(cfg.Obs.Tracer))
	res := &PatternResult{}
	dom := m.BindMeters(cfg.Lib, cfg.FreqMHz, cfg.Gated)
	book := NewLaneBook(m, cfg.Obs.Metrics)

	flows := cfg.Spatial.Flows(cfg.W, cfg.H, cfg.Seed)
	res.FlowsRequested = len(flows)

	// Injection stamps are collected only when the window cuts a
	// warm-up, so the default path stays allocation-free; each source's
	// Eval appends to its own slice, counted after the run.
	rec, cut := stats.NewRecorder(cfg.Window), cfg.Window.Cuts()

	tracer := cfg.Obs.Tracer
	var live []liveFlow
	for _, f := range flows {
		srcC := Coord{X: f.Src % cfg.W, Y: f.Src / cfg.W}
		dstC := Coord{X: f.Dst % cfg.W, Y: f.Dst / cfg.W}
		pf := PatternFlow{Src: srcC, Dst: dstC}
		flowIdx := len(res.Flows)
		route, paths, err := book.Reserve(srcC, dstC, 1)
		if err != nil {
			if tracer != nil {
				tracer.Emit(obs.Event{Track: "mesh.flows",
					Kind: obs.KindAdmissionBlock, Value: int64(flowIdx),
					Detail: fmt.Sprintf("%v->%v", srcC, dstC)})
			}
			res.Flows = append(res.Flows, pf)
			continue
		}
		if err := book.Configure(paths); err != nil {
			return nil, fmt.Errorf("mesh: configuring flow %v->%v: %w", srcC, dstC, err)
		}
		path := paths[0]
		tx := m.At(srcC).Tx[path[0].Circuit.In.Lane]
		rx := m.At(dstC).Rx[path[len(path)-1].Circuit.Out.Lane]
		pf.Established = true
		pf.Hops = len(route) - 1
		res.FlowsEstablished++
		if tracer != nil {
			tracer.Emit(obs.Event{Track: "mesh.flows",
				Kind: obs.KindFlowSetup, Value: int64(flowIdx),
				Detail: fmt.Sprintf("%v->%v hops=%d", srcC, dstC, pf.Hops)})
		}

		// Per-flow deterministic streams: data words and arrival times
		// both derive from the run seed and the flow's source node.
		flowSeed := sweep.Seed(cfg.Seed, f.Src)
		ms := &patternSource{
			gen:    bitvec.NewFlipGen(16, cfg.FlipProb, flowSeed^0xDA7A),
			stamps: &flowStamps{},
		}
		src := pattern.NewSource(cfg.Injection, flowSeed, cfg.WordsPerFlow)
		src.Emit = func() bool {
			if !tx.Ready() {
				return false
			}
			if !tx.Push(core.DataWord(uint16(ms.gen.Next()))) {
				return false
			}
			ms.stamps.push(src.Cycle())
			if cut {
				ms.sent = append(ms.sent, src.Cycle())
			}
			return true
		}
		ms.Source = src
		sink := &patternSink{rx: rx, stamps: ms.stamps, rec: rec}
		if tracer != nil {
			// Only the tracer reads the track names.
			src.Tracer, src.Track = tracer, fmt.Sprintf("flow%d.src", flowIdx)
			sink.tracer, sink.track = tracer, fmt.Sprintf("flow%d.sink", flowIdx)
		}
		m.World().Add(ms, sink)
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
	res.WarmupCycles, res.Latency = rec.Result()
	res.MeasuredCycles = uint64(cfg.Cycles) - res.WarmupCycles
	if cut {
		// The aggregate counts cover the measurement window; per-flow
		// counts stay full-run.
		res.WordsDelivered = uint64(res.Latency.N())
		var sent uint64
		for _, lf := range live {
			for _, c := range lf.src.sent {
				if c >= res.WarmupCycles {
					sent++
				}
			}
		}
		res.WordsSent = sent
	}
	res.LaneUtilization = book.LaneUtilization()
	res.Power = dom.Report(fmt.Sprintf("pattern %v x %v", cfg.Spatial, cfg.Injection))
	res.PerNode = dom.PerNode("pattern node")
	return res, nil
}

var _ sim.Quiescer = (*patternSink)(nil)
var _ sim.Timed = (*patternSource)(nil)

package traffic

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/packetsw"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/stdcell"
)

// RunConfig controls one scenario simulation.
type RunConfig struct {
	// Cycles is the simulated length. The paper simulates 200 µs at
	// 25 MHz = 5000 cycles.
	Cycles int
	// FreqMHz is the clock frequency (25 MHz in Figures 9 and 10).
	FreqMHz float64
	// Lib is the technology library.
	Lib stdcell.Lib
	// Gated enables the circuit-switched router's configuration-driven
	// clock gating (the paper's future-work ablation); ignored by the
	// packet-switched router, which has no gating.
	Gated bool
	// Params overrides the circuit-switched router geometry (nil: the
	// paper's defaults). Used by the public noc façade's WithLanes /
	// WithLaneWidth options.
	Params *core.Params
	// PSParams overrides the packet-switched router configuration (nil:
	// the paper's defaults). Used by WithVirtualChannels / WithBufferDepth.
	PSParams *packetsw.Params
	// Seed is the run-level base seed mixed into every stream source, so
	// sweep cells draw independent data sequences. Zero keeps the
	// paper-default seeding (sources seeded by stream id alone).
	Seed uint64
	// Kernel selects the simulation kernel. The zero value is the
	// activity-tracked gated kernel; results are byte-identical under
	// both, so sim.KernelNaive exists for verification and benchmarking.
	Kernel sim.Kernel
	// SimWorkers bounds the goroutine pool the active kernel shards its
	// Eval sweep over; 0 means GOMAXPROCS. The other kernels ignore it.
	SimWorkers int
	// WordsPerStream caps each stream source's emitted words; 0 means
	// unlimited (the paper's open-loop scenarios). With a cap, exhausted
	// sources go quiescent, the gated kernel retires them, and the event
	// kernel fast-forwards the drained tail of the run.
	WordsPerStream uint64
	// Observe, when non-nil, receives the simulation world after the run
	// completes — kernel diagnostics (fast-forward windows, per-component
	// activity) for tests and benchmarks. It must not mutate the world.
	Observe func(*sim.World)
	// WarmupCycles excludes delivery-latency observations taken before
	// this cycle from a pattern run's Latency distribution, so the
	// startup transient does not bias replication confidence
	// intervals. The single-router projections truncate the latency
	// distribution only; word counts stay full-run (the mesh pattern
	// runner truncates its whole measurement window).
	WarmupCycles int
	// WarmupAuto detects the warm-up automatically with the MSER-5
	// steady-state rule. Mutually exclusive with WarmupCycles.
	WarmupAuto bool
	// RetainLatency keeps the raw per-word latency observations on the
	// result's Latency series (Samples), so replicated runs can pool
	// them into one distribution. Off by default: a plain run only needs
	// the summary moments.
	RetainLatency bool
	// Obs carries the run's observability sinks: a structured event
	// tracer (per-stream injections and deliveries plus kernel
	// scheduling) and a metrics registry. The zero value disables both;
	// enabling them never changes the simulated result.
	Obs obs.Hooks
}

// DefaultRunConfig mirrors the paper's power-estimation setup: 5000 cycles
// (200 µs at 25 MHz; 2 kB per 100%-loaded stream).
func DefaultRunConfig(lib stdcell.Lib) RunConfig {
	return RunConfig{Cycles: 5000, FreqMHz: 25, Lib: lib}
}

// Validate checks the configuration.
func (c RunConfig) Validate() error {
	if c.Cycles < 1 {
		return fmt.Errorf("traffic: need at least 1 cycle")
	}
	if !(c.FreqMHz > 0) || math.IsInf(c.FreqMHz, 1) {
		return fmt.Errorf("traffic: FreqMHz %v must be finite and positive", c.FreqMHz)
	}
	if c.Params != nil {
		if err := c.Params.Validate(); err != nil {
			return err
		}
	}
	if c.PSParams != nil {
		if err := c.PSParams.Validate(); err != nil {
			return err
		}
	}
	if c.WarmupCycles < 0 || c.WarmupCycles >= c.Cycles {
		return fmt.Errorf("traffic: warm-up %d out of [0, cycles=%d)", c.WarmupCycles, c.Cycles)
	}
	if c.WarmupCycles > 0 && c.WarmupAuto {
		return fmt.Errorf("traffic: explicit warm-up and auto-detection are mutually exclusive")
	}
	return nil
}

// coreParams returns the circuit-switched geometry to simulate.
func (c RunConfig) coreParams() core.Params {
	if c.Params != nil {
		return *c.Params
	}
	return core.DefaultParams()
}

// worldOpts returns the simulation-world options the run configuration
// selects: the kernel, for the active kernel the Eval parallelism, and
// the structured-event tracer when one is attached.
func (c RunConfig) worldOpts() []sim.WorldOption {
	return []sim.WorldOption{sim.WithKernel(c.Kernel),
		sim.WithParallelism(c.SimWorkers), sim.WithTracer(c.Obs.Tracer)}
}

// psParams returns the packet-switched configuration to simulate.
func (c RunConfig) psParams() packetsw.Params {
	if c.PSParams != nil {
		return *c.PSParams
	}
	return packetsw.DefaultParams()
}

// Result is the outcome of one scenario simulation.
type Result struct {
	// Power is the three-bucket estimate.
	Power power.Breakdown
	// Attribution is the dynamic power split by activity class, in the
	// meter's deterministic (sorted) order; it sums to Power.DynamicUW().
	Attribution []power.AttributionEntry
	// WordsSent is the total number of data words offered by all streams.
	WordsSent uint64
	// WordsDelivered counts words that completed their path (only streams
	// terminating at the tile port are observable end to end).
	WordsDelivered uint64
}

// RunCircuit simulates the circuit-switched assembly under the scenario.
// Streams entering at the tile port use the local transmit converters;
// streams entering at a neighbour port are driven by feeder converters
// that stand in for the upstream router's registered lane outputs (their
// activity is charged to that upstream router, not to the meter). Each
// stream occupies lane index ID-1 of its ports — scenario IV's streams 1
// and 3 leave on different East lanes, physically separated as the paper's
// lane division multiplexing prescribes.
func RunCircuit(sc Scenario, pat Pattern, cfg RunConfig) (Result, error) {
	if err := pat.Validate(); err != nil {
		return Result{}, err
	}
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	p := cfg.coreParams()
	// Open-loop measurement, as in the paper's scenarios: the destination
	// always consumes, no acknowledgements are configured.
	opt := core.AssemblyOptions{Flow: core.FlowParams{}, RxBufCap: 64}
	cw := newCircuitWorld(p, opt, cfg.worldOpts()...)
	a := cw.A
	meter := power.NewMeter(core.Netlist(p, cfg.Lib), cfg.Lib, cfg.FreqMHz)
	a.BindMeter(meter, cfg.Lib, cfg.Gated)

	var sources []*Source
	var res Result
	for _, st := range sc.Streams {
		lane := st.ID - 1
		if lane < 0 || lane >= p.LanesPerPort {
			return Result{}, fmt.Errorf("traffic: stream %d has no lane", st.ID)
		}
		tx, err := cw.Establish(core.Circuit{
			In:  core.LaneID{Port: st.In, Lane: lane},
			Out: core.LaneID{Port: st.Out, Lane: lane},
		})
		if err != nil {
			return Result{}, err
		}
		src := NewSourceSeeded(pat, st.ID, cfg.Seed)
		sources = append(sources, src)
		cw.W.Add(&sourceDriver{src: src, tx: tx, limit: cfg.WordsPerStream,
			tracer: cfg.Obs.Tracer, track: fmt.Sprintf("stream%d.src", st.ID)})
		if st.Out == core.Tile {
			cw.W.Add(&sinkDriver{rx: a.Rx[lane],
				tracer: cfg.Obs.Tracer, track: fmt.Sprintf("stream%d.sink", st.ID)})
		}
	}

	cw.W.Run(cfg.Cycles)
	if cfg.Observe != nil {
		cfg.Observe(cw.W)
	}

	for _, s := range sources {
		res.WordsSent += s.Sent()
	}
	for _, rx := range a.Rx {
		res.WordsDelivered += rx.Received()
	}
	res.Power = meter.Report("circuit switched / scenario " + sc.Name)
	res.Attribution = meter.AttributionSorted()
	return res, nil
}

// PacketWordsPerPacket is the payload length used when mapping a word
// stream onto the packet-switched router: 16 words per packet keeps the
// head-flit overhead near the paper's "same maximum bandwidth" framing.
const PacketWordsPerPacket = 16

// RunPacket simulates the packet-switched router under the same scenario.
// Each stream travels on virtual channel ID-1 and is throttled to one data
// word per PacketNibbles cycles — the bandwidth of one circuit-switched
// lane, the paper's "100% load of a single lane". Streams to a shared
// output port (scenario IV) are time multiplexed by the switch allocator.
func RunPacket(sc Scenario, pat Pattern, cfg RunConfig) (Result, error) {
	if err := pat.Validate(); err != nil {
		return Result{}, err
	}
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	pp := cfg.psParams()
	cp := cfg.coreParams()
	r := packetsw.NewRouter(pp, packetsw.PortRoute)
	meter := power.NewMeter(packetsw.Netlist(pp, cfg.Lib), cfg.Lib, cfg.FreqMHz)
	r.BindMeter(meter)

	w := sim.NewWorld(cfg.worldOpts()...)
	w.Add(r)

	wordPeriod := cp.PacketNibbles() // 5 cycles per word at full lane load
	var sources []*Source
	var res Result
	for _, st := range sc.Streams {
		vc := st.ID - 1
		if vc < 0 || vc >= pp.VCs {
			return Result{}, fmt.Errorf("traffic: stream %d has no VC", st.ID)
		}
		src := NewSourceSeeded(pat, st.ID, cfg.Seed)
		sources = append(sources, src)
		gen := &packetGen{
			src: src, vc: vc, dst: st.Out,
			period: wordPeriod, limit: cfg.WordsPerStream,
		}
		if st.In == core.Tile {
			tracer, track := cfg.Obs.Tracer, fmt.Sprintf("stream%d.src", st.ID)
			var cycle uint64
			w.Add(&sim.Func{OnEval: func() {
				if f, ok := gen.next(); ok {
					if !r.Inject(f) {
						gen.retry(f)
					} else if tracer != nil {
						tracer.Emit(obs.Event{Cycle: cycle, Track: track,
							Kind: obs.KindInject, Value: int64(f.Kind)})
					}
				}
			}, OnCommit: func() { cycle++ }})
		} else {
			// Feeder register standing in for the upstream router.
			inPort := st.In
			slot := new(packetsw.Flit)
			r.ConnectIn(inPort, slot)
			w.Add(&sim.Func{OnEval: func() {
				*slot = packetsw.Flit{}
				if f, ok := gen.next(); ok {
					*slot = f
				}
			}})
		}
	}
	// The tile ejection sink drains continuously.
	delivered := uint64(0)
	drainTracer := cfg.Obs.Tracer
	var drainCycle uint64
	w.Add(&sim.Func{OnEval: func() {
		for _, f := range r.Drain() {
			if f.Kind == packetsw.Body || f.Kind == packetsw.Tail {
				delivered++
				if drainTracer != nil {
					drainTracer.Emit(obs.Event{Cycle: drainCycle, Track: "tile.sink",
						Kind: obs.KindDeliver, Value: int64(delivered)})
				}
			}
		}
	}, OnCommit: func() { drainCycle++ }})

	w.Run(cfg.Cycles)
	if cfg.Observe != nil {
		cfg.Observe(w)
	}

	for _, s := range sources {
		res.WordsSent += s.Sent()
	}
	res.WordsDelivered = delivered
	res.Power = meter.Report("packet switched / scenario " + sc.Name)
	res.Attribution = meter.AttributionSorted()
	return res, nil
}

// packetGen converts a word source into a flit stream: packets of
// PacketWordsPerPacket words, one data word per period cycles plus the
// head flit when a packet opens.
type packetGen struct {
	src    *Source
	vc     int
	dst    core.Port
	period int
	limit  uint64 // emitted-word budget; 0 = unlimited

	cycle     int
	inPacket  int // payload words emitted in the current packet
	queued    []packetsw.Flit
	retrySlot *packetsw.Flit
}

// next returns the flit to emit this cycle, if any.
func (g *packetGen) next() (packetsw.Flit, bool) {
	g.cycle++
	if g.retrySlot != nil {
		f := *g.retrySlot
		g.retrySlot = nil
		return f, true
	}
	if len(g.queued) > 0 {
		f := g.queued[0]
		g.queued = g.queued[1:]
		return f, true
	}
	if g.cycle%g.period != 0 {
		return packetsw.Flit{}, false
	}
	// A retired source (word budget exhausted) stops drawing from the
	// load gate, mirroring the circuit runner's sourceDriver. The budget
	// is applied at packet boundaries only: a packet already opened is
	// completed (rounding the cap up to the packet length), because a
	// wormhole packet without its Tail flit would hold its output VC's
	// ownership in every router on the path forever.
	if g.limit > 0 && g.inPacket == 0 && g.src.Sent() >= g.limit {
		return packetsw.Flit{}, false
	}
	word, ok := g.src.Offer()
	if !ok {
		return packetsw.Flit{}, false
	}
	kind := packetsw.Body
	g.inPacket++
	if g.inPacket >= PacketWordsPerPacket {
		kind = packetsw.Tail
		g.inPacket = 0
	}
	data := packetsw.Flit{Kind: kind, VC: g.vc, Data: word.Data}
	if g.inPacket == 1 {
		// Open the packet: head first, then the data word.
		g.queued = append(g.queued, data)
		return packetsw.Flit{Kind: packetsw.Head, VC: g.vc,
			Data: packetsw.HeadData(g.dst)}, true
	}
	return data, true
}

// retry re-queues a flit the router could not accept this cycle.
func (g *packetGen) retry(f packetsw.Flit) { g.retrySlot = &f }

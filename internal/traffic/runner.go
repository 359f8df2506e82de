package traffic

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/packetsw"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/stats"
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
	// paper's defaults). Used by the public noc façade's WithLanes
	// option.
	Params *core.Params
	// PSParams overrides the packet-switched router configuration (nil:
	// the paper's defaults). Used by WithVirtualChannels / WithBufferDepth.
	PSParams *packetsw.Params
	// Seed is the run-level base seed mixed into every stream source, so
	// sweep cells draw independent data sequences. Zero keeps the
	// paper-default seeding (sources seeded by stream id alone).
	Seed uint64
	// Kernel selects the simulation kernel. The zero value is the
	// production kernel, sim.KernelActive; results are byte-identical
	// under both, so sim.KernelNaive exists for verification and
	// benchmarking.
	Kernel sim.Kernel
	// WordsPerStream caps each stream source's emitted words; 0 means
	// unlimited (the paper's open-loop scenarios). With a cap, exhausted
	// sources retire and the network drains, and every runner then
	// fast-forwards the drained tail.
	WordsPerStream uint64
	// Observe, when non-nil, receives the simulation world after the run
	// completes — kernel diagnostics (fast-forward windows, per-component
	// activity) for tests and benchmarks. It must not mutate the world.
	Observe func(*sim.World)
	// Window is the in-run latency measurement: the warm-up it cuts and
	// whether it retains the raw samples for pooling. RunTDM and the
	// pattern runners (RunPacketPattern, RunTDMPattern) record their
	// Latency through it, and the pattern runners report the effective
	// warm-up; the single-router projections cut the latency
	// distribution only, word counts stay full-run (mesh.RunPattern
	// cuts its whole measurement window). RunCircuit and RunPacket
	// measure no in-run latency.
	Window stats.Window
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
	if err := c.Window.Check(c.Cycles); err != nil {
		return fmt.Errorf("traffic: %w", err)
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
// selects: the kernel and the structured-event tracer when one is
// attached.
func (c RunConfig) worldOpts() []sim.WorldOption {
	return []sim.WorldOption{sim.WithKernel(c.Kernel), sim.WithTracer(c.Obs.Tracer)}
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
	// terminating at the tile port are observable end to end, except on
	// the TDM model, which observes every output port).
	WordsDelivered uint64
	// Latency is the in-run delivery latency distribution, in cycles,
	// of the runs that measure one: RunTDM and the pattern runners. The
	// circuit and packet stream runners leave it empty; their latency
	// comes from MeasureCircuitLatency and MeasurePacketLatency.
	Latency stats.Series
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
	lib := cfg.Lib
	meter := power.NewMeter(core.Netlist(p, lib), lib, cfg.FreqMHz)
	a.BindMeter(meter, &lib, cfg.Gated)

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
			tracer: cfg.Obs.Tracer, track: trackName(cfg.Obs.Tracer, "stream%d.src", st.ID)})
		if st.Out == core.Tile {
			cw.W.Add(&sinkDriver{rx: a.Rx[lane],
				tracer: cfg.Obs.Tracer, track: trackName(cfg.Obs.Tracer, "stream%d.sink", st.ID)})
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

// trackName formats a component's trace track name, or returns "" for
// an untraced run: only the tracer reads the names.
func trackName(t obs.Tracer, format string, n int) string {
	if t == nil {
		return ""
	}
	return fmt.Sprintf(format, n)
}

// laneWordPeriod is the cycles per word of one circuit-switched lane:
// the paper's 20-bit packet (4-bit header, 16-bit word) crosses a 4-bit
// lane in 5 transfers. A stream at the paper's "100% load of a single
// lane" offers one word per period on every fabric.
const laneWordPeriod = 5

// PacketWordsPerPacket is the payload length used when mapping a word
// stream onto the packet-switched router: 16 words per packet keeps the
// head-flit overhead near the paper's "same maximum bandwidth" framing.
const PacketWordsPerPacket = 16

// RunPacket simulates the packet-switched router under the same scenario.
// Each stream travels on virtual channel ID-1 and is throttled to one data
// word per laneWordPeriod cycles — the bandwidth of one circuit-switched
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
	r := packetsw.NewRouter(pp, packetsw.PortRoute)
	meter := power.NewMeter(packetsw.Netlist(pp, cfg.Lib), cfg.Lib, cfg.FreqMHz)
	r.BindMeter(meter)

	w := sim.NewWorld(cfg.worldOpts()...)
	w.Add(r)

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
			period: laneWordPeriod, limit: cfg.WordsPerStream,
		}
		if st.In == core.Tile {
			w.Add(&packetInjector{r: r, gen: gen,
				tracer: cfg.Obs.Tracer, track: trackName(cfg.Obs.Tracer, "stream%d.src", st.ID)})
		} else {
			// Feeder register standing in for the upstream router.
			slot := new(packetsw.Flit)
			r.ConnectIn(st.In, slot)
			w.Add(&packetFeeder{gen: gen, slot: slot})
		}
	}
	// The tile ejection sink drains continuously. No stream is stamped,
	// so it records no latency.
	drain := &patternDrain{r: r, tracer: cfg.Obs.Tracer}
	w.Add(drain)

	w.Run(cfg.Cycles)
	if cfg.Observe != nil {
		cfg.Observe(w)
	}

	for _, s := range sources {
		res.WordsSent += s.Sent()
	}
	res.WordsDelivered = drain.delivered
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

// retired reports whether the generator will emit nothing more: its
// word budget is spent at a packet boundary and no flit is queued or
// waiting to retry. From then on next only advances the cycle count,
// which skip replays.
func (g *packetGen) retired() bool {
	return g.limit > 0 && g.inPacket == 0 && g.retrySlot == nil && len(g.queued) == 0 &&
		g.src.Sent() >= g.limit
}

// skip replays n cycles of a retired generator.
func (g *packetGen) skip(n uint64) { g.cycle += int(n) }

// packetInjector injects one stream's flits at the router's tile port,
// retrying a flit the router refuses on the next cycle. Once its
// generator is retired it is quiescent, so a finite stream run can
// fast-forward its drained tail.
type packetInjector struct {
	r   *packetsw.Router
	gen *packetGen

	// tracer, when non-nil, receives an inject event per accepted flit
	// on the track name.
	tracer obs.Tracer
	track  string
	cycle  uint64
}

// Eval implements sim.Clocked.
func (d *packetInjector) Eval() {
	f, ok := d.gen.next()
	if !ok {
		return
	}
	if !d.r.Inject(f) {
		d.gen.retry(f)
	} else if d.tracer != nil {
		d.tracer.Emit(obs.Event{Cycle: d.cycle, Track: d.track,
			Kind: obs.KindInject, Value: int64(f.Kind)})
	}
}

// Commit implements sim.Clocked.
func (d *packetInjector) Commit() { d.cycle++ }

// Quiescent implements sim.Quiescer.
func (d *packetInjector) Quiescent() bool { return d.gen.retired() }

// IdleWindow implements sim.Quiescer: a retired injector's generator
// and trace clock still count the skipped cycles.
func (d *packetInjector) IdleWindow(n uint64) {
	d.gen.skip(n)
	d.cycle += n
}

// packetFeeder presents one stream's flits on the feeder register of a
// neighbour input port, one per cycle, clearing it on cycles with none.
// It is quiescent once its generator is retired and the register is
// clear.
type packetFeeder struct {
	gen  *packetGen
	slot *packetsw.Flit
}

// Eval implements sim.Clocked.
func (d *packetFeeder) Eval() {
	*d.slot = packetsw.Flit{}
	if f, ok := d.gen.next(); ok {
		*d.slot = f
	}
}

// Commit implements sim.Clocked.
func (d *packetFeeder) Commit() {}

// Quiescent implements sim.Quiescer.
func (d *packetFeeder) Quiescent() bool {
	return d.gen.retired() && *d.slot == packetsw.Flit{}
}

// IdleWindow implements sim.Quiescer: a retired feeder's generator
// still counts the skipped cycles.
func (d *packetFeeder) IdleWindow(n uint64) { d.gen.skip(n) }

var _ sim.Quiescer = (*packetInjector)(nil)
var _ sim.Quiescer = (*packetFeeder)(nil)

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

// streamOffer drives one Table-3 stream's source on the packet and TDM
// routers: on cycles phase, phase+laneWordPeriod, … while the stream is
// under its word budget, it draws through the source's load gate and
// hands each word and its cycle to enqueue. Between its offer cycles
// the offerer is quiescent and reports the next one through NextEvent,
// so the kernel skips it there and may fast-forward up to it; the load
// gate still draws once per offer opportunity, part of the
// cross-kernel byte-identity contract. Once the budget is spent it is
// quiescent for good, the port drivers drain, and the kernel
// fast-forwards the rest of the run.
type streamOffer struct {
	src     *Source
	phase   uint64 // cycle of the first offer, below laneWordPeriod
	limit   uint64 // emitted-word budget; 0 = unlimited
	enqueue func(word uint32, cycle uint64)
	cycle   uint64
}

// Eval implements sim.Clocked.
func (s *streamOffer) Eval() {
	if !s.Quiescent() {
		if word, ok := s.src.Offer(); ok {
			s.enqueue(uint32(word.Data), s.cycle)
		}
	}
}

// Commit implements sim.Clocked.
func (s *streamOffer) Commit() { s.cycle++ }

// retired reports the word budget spent.
func (s *streamOffer) retired() bool {
	return s.limit > 0 && s.src.Sent() >= s.limit
}

// Quiescent implements sim.Quiescer: off its offer cycles, or retired.
// Drained queues are the port drivers' quiescence condition, not the
// offerer's.
func (s *streamOffer) Quiescent() bool {
	return s.cycle%laneWordPeriod != s.phase || s.retired()
}

// IdleWindow implements sim.Quiescer: a skipped offerer accrues only
// its clock.
func (s *streamOffer) IdleWindow(n uint64) { s.cycle += n }

// NextEvent implements sim.Timed: a live offerer's next offer cycle,
// which ends its quiescence with no external stimulus.
func (s *streamOffer) NextEvent() (uint64, bool) {
	if s.retired() {
		return 0, false
	}
	return s.cycle + (s.phase+laneWordPeriod-s.cycle%laneWordPeriod)%laneWordPeriod, true
}

// PacketWordsPerPacket is the payload length used when mapping a word
// stream onto the packet-switched router: 16 words per packet keeps the
// head-flit overhead near the paper's "same maximum bandwidth" framing.
const PacketWordsPerPacket = 16

// packetOfferPhase is the packet streams' first offer cycle: their
// words fall on cycles 4, 9, 14, ….
const packetOfferPhase = laneWordPeriod - 1

// RunPacket simulates the packet-switched router under the same scenario.
// Each stream travels on virtual channel ID-1 and offers one data word
// per laneWordPeriod cycles — the bandwidth of one circuit-switched
// lane, the paper's "100% load of a single lane" — framed in packets of
// PacketWordsPerPacket words. A word budget is rounded up to whole
// packets: a wormhole packet without its Tail flit would hold its
// output VC forever. The streams entering one port queue their flits on
// that port's one driver (see packetPorts), which hands the router one
// flit per cycle as the port's link does; streams to a shared output
// port (scenario IV) are time multiplexed by the switch allocator.
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

	ports := newPacketPorts(r)
	limit := wholePackets(cfg.WordsPerStream, PacketWordsPerPacket) * PacketWordsPerPacket
	var sources []*Source
	var res Result
	for _, st := range sc.Streams {
		vc := st.ID - 1
		if vc < 0 || vc >= pp.VCs {
			return Result{}, fmt.Errorf("traffic: stream %d has no VC", st.ID)
		}
		src := NewSourceSeeded(pat, st.ID, cfg.Seed)
		sources = append(sources, src)
		w.Add(&streamOffer{src: src, phase: packetOfferPhase, limit: limit,
			enqueue: packetizer(ports.queue(st.In), vc, st.Out, src,
				cfg.Obs.Tracer, trackName(cfg.Obs.Tracer, "stream%d.src", st.ID))})
	}
	// The offerers come before the port drivers, so a word's first flit
	// leaves its driver in the cycle it is offered.
	ports.register(w)
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

// packetizer returns a packet stream's enqueue callback: it frames the
// words src offers into packets of PacketWordsPerPacket words on
// virtual channel vc, bound for port dst, and appends their flits to
// the input port's queue — a Head and the word on a packet's first
// word, a Tail on its last. A traced run gets one inject event per word
// on the track, valued with the words sent.
func packetizer(queue *[]packetsw.Flit, vc int, dst core.Port, src *Source, tracer obs.Tracer, track string) func(uint32, uint64) {
	return func(word uint32, cycle uint64) {
		n := src.Sent() // this word's number in the stream, from 1
		if (n-1)%PacketWordsPerPacket == 0 {
			*queue = append(*queue, packetsw.Flit{Kind: packetsw.Head, VC: vc, Data: packetsw.HeadData(dst)})
		}
		kind := packetsw.Body
		if n%PacketWordsPerPacket == 0 {
			kind = packetsw.Tail
		}
		*queue = append(*queue, packetsw.Flit{Kind: kind, VC: vc, Data: uint16(word)})
		if tracer != nil {
			tracer.Emit(obs.Event{Cycle: cycle, Track: track,
				Kind: obs.KindInject, Value: int64(n)})
		}
	}
}

// wholePackets returns the packets of size words that carry a budget of
// words, rounded up; 0 stays unlimited.
func wholePackets(words uint64, size int) uint64 {
	return (words + uint64(size) - 1) / uint64(size)
}

var _ sim.Timed = (*streamOffer)(nil)

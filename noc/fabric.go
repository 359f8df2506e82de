package noc

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/aethereal"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/packetsw"
	"repro/internal/pattern"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/stdcell"
	"repro/internal/traffic"
)

// wordBits is the tile-interface word size all throughput figures use.
const wordBits = 16

// defaultLatencyWords is the latency sample count when unset.
const defaultLatencyWords = 200

// fabric implements Fabric for all three kinds: the paper's
// lane-division circuit-switched router, the packet-switched
// virtual-channel baseline and the Æthereal-style slot-table TDM
// comparator. Every knob is declared once, in the embedded FabricSpec,
// whose zero fields mean the paper's defaults; beside it sit
// WithNodeTrace's depth, the simulation kernel and the run-time hooks,
// none of which changes a Result byte.
type fabric struct {
	FabricSpec
	traceCycles int    // workload runs: VCD capture depth for node (0,0)
	kernel      Kernel // WithKernel, or the sweep's kernel

	worldObserver func(*sim.World) // test hook: kernel diagnostics after a run

	cacheOn  bool   // WithCache given
	cacheDir string // its cache directory
	cache    *Cache // resolved instance (sweep engine / tests inject it)

	trace     io.Writer // Chrome trace-event JSON destination (WithTrace)
	metricsOn bool      // collect Result.Metrics (WithMetrics)
	obs       obs.Hooks // resolved per-run hooks (beginObs / sweep injection)
}

// newFabric returns a fabric of the given kind tuned by the options.
func newFabric(kind Kind, opts []Option) *fabric {
	f := &fabric{FabricSpec: FabricSpec{Kind: kind}}
	for _, o := range opts {
		o(f)
	}
	return f
}

// Kind implements Fabric.
func (f fabric) Kind() Kind { return f.FabricSpec.Kind }

// String implements Fabric.
func (f fabric) String() string {
	switch f.Kind() {
	case KindCircuit:
		gated := ""
		if f.Gated {
			gated = ", clock gated"
		}
		p := f.coreParams()
		return fmt.Sprintf("circuit-switched (%d lanes x %d bit%s)", p.LanesPerPort, p.LaneWidth, gated)
	case KindPacket:
		p := f.psParams()
		return fmt.Sprintf("packet-switched (%d VCs x %d flits)", p.VCs, p.Depth)
	default:
		p := f.tdmParams()
		return fmt.Sprintf("Aethereal TDM (%d slots, %d-word BE FIFOs)", p.Slots, p.BEDepth)
	}
}

// Validate implements Fabric: it checks the shared knobs and those of
// the fabric's own kind; the other kinds' knobs are ignored.
func (f fabric) Validate() error {
	if _, err := cornerLib(f.Corner); err != nil {
		return err
	}
	if _, err := ParseKernel(string(f.kernel)); err != nil {
		return err
	}
	if f.LatencyWords != nil && *f.LatencyWords < 0 {
		return fmt.Errorf("noc: negative latency word count %d", *f.LatencyWords)
	}
	if f.traceCycles < 0 {
		return fmt.Errorf("noc: negative trace depth %d", f.traceCycles)
	}
	if f.cacheOn && f.cacheDir == "" {
		return errors.New("noc: WithCache: empty cache directory")
	}
	switch f.Kind() {
	case KindCircuit:
		if err := f.coreParams().Validate(); err != nil {
			return fmt.Errorf("noc: %w", err)
		}
	case KindPacket:
		if err := f.psParams().Validate(); err != nil {
			return fmt.Errorf("noc: %w", err)
		}
	case KindTDM:
		if err := f.tdmParams().Validate(); err != nil {
			return fmt.Errorf("noc: %w", err)
		}
	}
	return nil
}

// Run implements Fabric. The fabric and the scenario are validated, the
// scenario defaulted, and the run — each replication of a replicated
// scenario — served from the content-addressed cache when caching is
// enabled (WithCache) and its key matches.
func (f fabric) Run(sc Scenario) (*Result, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	sc = sc.withDefaults()
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	fin := f.beginObs()
	res, err := runFabric(f, sc)
	if err != nil {
		return nil, err
	}
	return res, fin(res)
}

// run executes one non-replicated, defaulted, validated scenario. A
// workload maps applications onto a circuit-switched mesh via the CCN;
// the packet-switched and TDM fabrics do not support it. A pattern runs
// on the whole circuit-switched mesh, or drives the packet and TDM
// single-router models with its projection onto the mesh-centre router.
// Streams drive the single-router harnesses of Figures 9/10 and Table 4.
func (f fabric) run(sc Scenario) (*Result, error) {
	switch {
	case sc.IsWorkload() && f.Kind() == KindPacket:
		return nil, fmt.Errorf("noc: the packet-switched fabric does not support workload scenarios (use CircuitSwitched)")
	case sc.IsWorkload() && f.Kind() == KindTDM:
		return nil, fmt.Errorf("noc: the Aethereal TDM fabric does not support workload scenarios (use CircuitSwitched)")
	case sc.IsWorkload():
		return runCircuitWorkload(f, sc)
	case sc.IsPattern() && f.Kind() == KindCircuit:
		return runCircuitPattern(f, sc)
	}
	rc := f.runConfig(sc)
	var tr traffic.PatternRunResult
	var err error
	if sc.IsPattern() {
		sp, inj, perr := sc.patternSetup()
		if perr != nil {
			return nil, perr
		}
		// The mesh centre is also the hotspot node, so the projection
		// captures exactly the router the pattern stresses hardest.
		flows := pattern.PortFlows(sp, sc.MeshWidth, sc.MeshHeight,
			pattern.HotspotNode(sc.MeshWidth, sc.MeshHeight), sc.Seed)
		if f.Kind() == KindPacket {
			tr, err = traffic.RunPacketPattern(flows, inj, sc.Data.FlipProb, rc)
		} else {
			tr, err = traffic.RunTDMPattern(f.tdmParams(), flows, inj, sc.Data.FlipProb, rc)
		}
	} else {
		pat := traffic.Pattern{FlipProb: sc.Data.FlipProb, Load: sc.Data.Load}
		switch f.Kind() {
		case KindCircuit:
			tr.Result, err = traffic.RunCircuit(sc.trafficScenario(), pat, rc)
		case KindPacket:
			tr.Result, err = traffic.RunPacket(sc.trafficScenario(), pat, rc)
		default:
			tr.Result, err = traffic.RunTDM(f.tdmParams(), sc.trafficScenario(), pat, rc)
		}
	}
	if err != nil {
		return nil, err
	}
	res := &Result{
		Fabric:           f.Kind(),
		Scenario:         sc.Name,
		FreqMHz:          sc.FreqMHz,
		Cycles:           sc.Cycles,
		WarmupCycles:     tr.WarmupCycles,
		WordsSent:        tr.WordsSent,
		WordsDelivered:   tr.WordsDelivered,
		ThroughputMbps:   stats.Rate(tr.WordsDelivered, wordBits, uint64(sc.Cycles), sc.FreqMHz),
		Power:            powerFrom(tr.Power),
		PerComponent:     attributionComponents(tr.Attribution, tr.Power.StaticUW),
		Latency:          latencyFrom(tr.Latency),
		FlowsRequested:   tr.FlowsRequested,
		FlowsEstablished: tr.FlowsEstablished,
	}
	if n := f.latencySamples(); n > 0 && len(sc.Streams) > 0 && f.Kind() != KindTDM {
		if res.Latency, err = f.streamLatency(sc, n); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// runConfig fills the traffic.RunConfig of a single-router run with the
// fields its kind's runners read: the circuit runner reads the circuit
// geometry and clock gating, the packet runners the VC configuration.
func (f fabric) runConfig(sc Scenario) traffic.RunConfig {
	rc := traffic.RunConfig{
		Cycles: sc.Cycles, FreqMHz: sc.FreqMHz, Lib: f.mustLib(),
		Seed: sc.Seed, Kernel: f.simKernel(),
		WordsPerStream: sc.WordsPerStream,
		Window:         sc.window(),
		Observe:        f.observeKernel(),
		Obs:            f.obs,
	}
	switch f.Kind() {
	case KindCircuit:
		p := f.coreParams()
		rc.Gated, rc.Params = f.Gated, &p
	case KindPacket:
		pp := f.psParams()
		rc.PSParams = &pp
	}
	return rc
}

// streamLatency measures the circuit- or packet-switched router's
// characteristic latency at the scenario's load with the canonical
// single-stream North→Tile harness, taking n timed words.
func (f fabric) streamLatency(sc Scenario, n int) (*Latency, error) {
	if f.Kind() == KindCircuit {
		lr, err := traffic.MeasureCircuitLatency(f.coreParams(), sc.Data.Load, n, f.worldOpts()...)
		return latencyFrom(lr.Cycles), err
	}
	// With several streams converging on one output port the measured
	// stream competes against background traffic, the packet-switched
	// router's load-dependent case. The contention harness needs three
	// VCs; a narrower router still measures, just without background
	// streams.
	pp := f.psParams()
	contended := false
	seen := map[Port]bool{}
	for _, st := range sc.Streams {
		contended = contended || seen[st.Out]
		seen[st.Out] = true
	}
	lr, err := traffic.MeasurePacketLatency(pp, sc.Data.Load, n, contended && pp.VCs >= 3,
		f.worldOpts()...)
	return latencyFrom(lr.Cycles), err
}

// mustLib resolves the corner after Validate has accepted it.
func (f fabric) mustLib() stdcell.Lib {
	lib, err := cornerLib(f.Corner)
	if err != nil {
		panic(err)
	}
	return lib
}

// coreParams returns the circuit-switched geometry the fabric
// simulates.
func (f fabric) coreParams() core.Params {
	p := core.DefaultParams()
	if f.Lanes != 0 {
		p.LanesPerPort = f.Lanes
	}
	return p
}

// psParams returns the packet-switched configuration the fabric
// simulates.
func (f fabric) psParams() packetsw.Params {
	p := packetsw.DefaultParams()
	if f.VCs != 0 {
		p.VCs = f.VCs
	}
	if f.BufferDepth != 0 {
		p.Depth = f.BufferDepth
	}
	return p
}

// tdmParams returns the TDM router configuration the fabric simulates.
func (f fabric) tdmParams() aethereal.Params {
	p := aethereal.DefaultParams()
	if f.Slots != 0 {
		p.Slots = f.Slots
	}
	if f.BEDepth != 0 {
		p.BEDepth = f.BEDepth
	}
	return p
}

// latencySamples resolves the latency word count: unset means the
// default.
func (f fabric) latencySamples() int {
	if f.LatencyWords == nil {
		return defaultLatencyWords
	}
	return *f.LatencyWords
}

// simKernel maps the facade's kernel choice onto the kernel type the
// internal simulation worlds take. Unknown names cannot reach here:
// Validate rejects them via ParseKernel before any world is built, and
// every other accepted name means the production kernel.
func (f fabric) simKernel() sim.Kernel {
	if f.kernel == KernelNaive {
		return sim.KernelNaive
	}
	return sim.KernelActive
}

// worldOpts returns the simulation-world options the fabric's worlds
// are built with: the kernel choice and the structured-event tracer
// when one is attached.
func (f fabric) worldOpts() []sim.WorldOption {
	return []sim.WorldOption{sim.WithKernel(f.simKernel()), sim.WithTracer(f.obs.Tracer)}
}

// observeKernel builds the Observe hook the runners install on their
// simulation worlds: it mirrors the world's scheduling diagnostics into
// the metrics registry when one is attached and chains the test-only
// world observer. Gauges, not counters — a replicated run observes
// several worlds and the snapshot reports the last.
func (f fabric) observeKernel() func(*sim.World) {
	return func(w *sim.World) {
		if m := f.obs.Metrics; m != nil {
			m.Gauge("kernel.parked").Set(int64(w.Parked()))
			m.Gauge("kernel.activations").Set(int64(w.Activations()))
			m.Gauge("kernel.polls").Set(int64(w.Polls()))
		}
		if f.worldObserver != nil {
			f.worldObserver(w)
		}
	}
}

// beginObs resolves the per-run observability hooks on the receiver:
// hooks already injected (the sweep engine's per-cell tracer and shared
// registry) are kept as-is and export stays with the injector;
// otherwise WithTrace and WithMetrics create a per-run collector and
// registry. The returned finish function attaches the metrics snapshot
// to the completed Result and writes the Chrome trace; it must run
// after the run (including all replications) completes.
func (f *fabric) beginObs() func(*Result) error {
	if f.obs.Tracer != nil || f.obs.Metrics != nil {
		return func(*Result) error { return nil }
	}
	var col *obs.Collector
	if f.trace != nil {
		col = obs.NewCollector()
		f.obs.Tracer = col
	}
	if f.metricsOn {
		f.obs.Metrics = obs.NewRegistry()
	}
	dst, reg := f.trace, f.obs.Metrics
	return func(res *Result) error {
		if reg != nil && res != nil {
			res.Metrics = reg.Snapshot()
		}
		if col != nil {
			if err := obs.WriteChrome(dst, col.Events()); err != nil {
				return fmt.Errorf("noc: trace export: %w", err)
			}
		}
		return nil
	}
}

// withCell returns a copy of the fabric whose tracer stamps events with
// the given cell (or replication) index, so one collector can carry a
// whole sweep with every event attributable to its cell.
func (f fabric) withCell(cell int) fabric {
	if f.obs.Tracer != nil {
		f.obs.Tracer = &obs.CellTracer{T: f.obs.Tracer, Cell: cell}
	}
	return f
}

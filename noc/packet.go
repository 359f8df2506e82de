package noc

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/traffic"
)

// packetFabric implements Fabric with the packet-switched
// virtual-channel baseline router.
type packetFabric struct {
	cfg config
}

// Kind implements Fabric.
func (f *packetFabric) Kind() Kind { return KindPacket }

// String implements Fabric.
func (f *packetFabric) String() string {
	p := f.cfg.resolvedPSParams()
	return fmt.Sprintf("packet-switched (%d VCs x %d flits)", p.VCs, p.Depth)
}

// Validate implements Fabric.
func (f *packetFabric) Validate() error { return f.cfg.validate(KindPacket) }

// setCache injects a resolved cache instance (sweep engine, tests).
func (f *packetFabric) setCache(c *Cache) { f.cfg.cache = c }

// setObs injects observability hooks (sweep engine): an injected
// tracer/registry is owned by the injector, so Run leaves export and
// snapshotting to it.
func (f *packetFabric) setObs(h obs.Hooks) { f.cfg.obs = h }

// Run implements Fabric. Workload scenarios are not supported: the
// paper's run-time mapped applications ride the circuit-switched NoC.
// With caching enabled (WithCache), a single run is served from the
// content-addressed cache when its key matches.
func (f *packetFabric) Run(sc Scenario) (*Result, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	sc = sc.withDefaults()
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	cfg := f.cfg
	fin := cfg.beginObs()
	res, err := runFabric(KindPacket, cfg, sc, f.run)
	if err != nil {
		return nil, err
	}
	return res, fin(res)
}

// run executes one non-replicated, defaulted, validated scenario.
func (f *packetFabric) run(cfg config, sc Scenario) (*Result, error) {
	if sc.IsPattern() {
		return runPacketPattern(cfg, sc)
	}
	if sc.IsWorkload() {
		return nil, fmt.Errorf("noc: the packet-switched fabric does not support workload scenarios (use CircuitSwitched)")
	}
	rc := traffic.RunConfig{
		Cycles: sc.Cycles, FreqMHz: sc.FreqMHz,
		Lib: cfg.mustLib(), PSParams: cfg.psParams(),
		Seed: sc.Seed, Kernel: cfg.simKernel(),
		WordsPerStream: sc.WordsPerStream,
		Observe:        cfg.observeKernel(),
		Obs:            cfg.obs,
	}
	pat := traffic.Pattern{FlipProb: sc.Data.FlipProb, Load: sc.Data.Load}
	tr, err := traffic.RunPacket(sc.trafficScenario(), pat, rc)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Fabric:         KindPacket,
		Scenario:       sc.Name,
		FreqMHz:        sc.FreqMHz,
		Cycles:         sc.Cycles,
		WordsSent:      tr.WordsSent,
		WordsDelivered: tr.WordsDelivered,
		ThroughputMbps: stats.Rate(tr.WordsDelivered, wordBits, uint64(sc.Cycles), sc.FreqMHz),
		Power:          powerFrom(tr.Power),
		PerComponent:   attributionComponents(tr.Attribution, tr.Power.StaticUW),
	}
	if n := cfg.latencySamples(); n > 0 && len(sc.Streams) > 0 {
		// With several streams converging on one output port the
		// measured stream competes against background traffic, the
		// packet-switched router's load-dependent case.
		contended := false
		seen := map[Port]int{}
		for _, st := range sc.Streams {
			seen[st.Out]++
			if seen[st.Out] > 1 {
				contended = true
			}
		}
		pp := cfg.resolvedPSParams()
		// The contention harness needs three VCs; a narrower router
		// still measures, just without background streams.
		contended = contended && pp.VCs >= 3
		lr, err := traffic.MeasurePacketLatency(pp, sc.Data.Load, n, contended,
			cfg.worldOpts()...)
		if err != nil {
			return nil, err
		}
		res.Latency = latencyFrom(lr.Cycles)
	}
	return res, nil
}

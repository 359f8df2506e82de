package noc

import (
	"repro/internal/mesh"
	"repro/internal/pattern"
	"repro/internal/stats"
	"repro/internal/traffic"
)

// This file dispatches synthetic-pattern Scenarios (Scenario.Pattern /
// Scenario.Injection) to the three fabrics. The circuit fabric
// simulates the whole W×H mesh — one single-lane circuit per pattern
// flow, event-scheduled sources, per-node power meters. The
// packet-switched and TDM fabrics are single-router models, so they are
// driven with the projection of the pattern onto the observed
// mesh-centre router (pattern.PortFlows): the port-to-port traffic
// matrix XY routing would push through that position. The centre is
// also the hotspot node, so the projection captures exactly the router
// the pattern stresses hardest.

// runCircuitPattern maps the pattern onto a full circuit-switched mesh.
func runCircuitPattern(cfg config, sc Scenario) (*Result, error) {
	sp, inj, err := sc.patternSetup()
	if err != nil {
		return nil, err
	}
	pr, err := mesh.RunPattern(mesh.PatternConfig{
		W: sc.MeshWidth, H: sc.MeshHeight,
		Cycles: sc.Cycles, FreqMHz: sc.FreqMHz,
		Lib: cfg.mustLib(), Gated: cfg.gated,
		Spatial: sp, Injection: inj,
		FlipProb: sc.Data.FlipProb,
		Seed:     sc.Seed, WordsPerFlow: sc.WordsPerStream,
		Params: cfg.coreParams(), Kernel: cfg.simKernel(),
		SimWorkers:    cfg.parallelism,
		Observe:       cfg.observeKernel(),
		WarmupCycles:  sc.WarmupCycles,
		WarmupAuto:    sc.WarmupAuto,
		RetainLatency: sc.poolLatency,
		Obs:           cfg.obs,
	})
	if err != nil {
		return nil, err
	}
	res := &Result{
		Fabric:           KindCircuit,
		Scenario:         sc.Name,
		FreqMHz:          sc.FreqMHz,
		Cycles:           sc.Cycles,
		WarmupCycles:     pr.WarmupCycles,
		WordsSent:        pr.WordsSent,
		WordsDelivered:   pr.WordsDelivered,
		ThroughputMbps:   stats.Rate(pr.WordsDelivered, wordBits, pr.MeasuredCycles, sc.FreqMHz),
		Power:            powerFrom(pr.Power),
		PerComponent:     nodeComponents(pr.PerNode, sc.MeshWidth),
		Latency:          latencyFrom(pr.Latency),
		LinkUtilization:  pr.LaneUtilization,
		FlowsRequested:   pr.FlowsRequested,
		FlowsEstablished: pr.FlowsEstablished,
	}
	return res, nil
}

// patternPortFlows projects the scenario's pattern onto the observed
// mesh-centre router.
func patternPortFlows(sc Scenario, sp pattern.Spatial) []pattern.PortFlow {
	obs := pattern.HotspotNode(sc.MeshWidth, sc.MeshHeight)
	return pattern.PortFlows(sp, sc.MeshWidth, sc.MeshHeight, obs, sc.Seed)
}

// patternResult assembles the common Result fields of a single-router
// pattern run.
func patternResult(kind Kind, sc Scenario, tr traffic.PatternRunResult) *Result {
	return &Result{
		Fabric:           kind,
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
}

// runPacketPattern drives the packet-switched single-router model with
// the projected pattern flows.
func runPacketPattern(cfg config, sc Scenario) (*Result, error) {
	sp, inj, err := sc.patternSetup()
	if err != nil {
		return nil, err
	}
	rc := traffic.RunConfig{
		Cycles: sc.Cycles, FreqMHz: sc.FreqMHz,
		Lib: cfg.mustLib(), PSParams: cfg.psParams(),
		Seed: sc.Seed, Kernel: cfg.simKernel(), SimWorkers: cfg.parallelism,
		WordsPerStream: sc.WordsPerStream,
		Observe:        cfg.observeKernel(),
		WarmupCycles:   sc.WarmupCycles, WarmupAuto: sc.WarmupAuto,
		RetainLatency: sc.poolLatency,
		Obs:           cfg.obs,
	}
	tr, err := traffic.RunPacketPattern(patternPortFlows(sc, sp), inj, sc.Data.FlipProb, rc)
	if err != nil {
		return nil, err
	}
	res := patternResult(KindPacket, sc, tr)
	return res, nil
}

// runTDMPattern drives the Æthereal-style TDM single-router model with
// the projected pattern flows.
func runTDMPattern(cfg config, sc Scenario) (*Result, error) {
	sp, inj, err := sc.patternSetup()
	if err != nil {
		return nil, err
	}
	rc := traffic.RunConfig{
		Cycles: sc.Cycles, FreqMHz: sc.FreqMHz,
		Lib:  cfg.mustLib(),
		Seed: sc.Seed, Kernel: cfg.simKernel(), SimWorkers: cfg.parallelism,
		WordsPerStream: sc.WordsPerStream,
		Observe:        cfg.observeKernel(),
		WarmupCycles:   sc.WarmupCycles, WarmupAuto: sc.WarmupAuto,
		RetainLatency: sc.poolLatency,
		Obs:           cfg.obs,
	}
	tr, err := traffic.RunTDMPattern(cfg.tdmParams(), patternPortFlows(sc, sp), inj, sc.Data.FlipProb, rc)
	if err != nil {
		return nil, err
	}
	res := patternResult(KindTDM, sc, tr)
	return res, nil
}

package noc

import (
	"repro/internal/mesh"
	"repro/internal/stats"
)

// runCircuitPattern maps a synthetic-pattern Scenario (Scenario.Pattern
// / Scenario.Injection) onto a full W×H circuit-switched mesh: one
// single-lane circuit per pattern flow, event-scheduled sources,
// per-node power meters. The packet-switched and TDM fabrics are
// single-router models; fabric.run drives them with the projection of
// the pattern onto the mesh-centre router (pattern.PortFlows), the
// port-to-port traffic matrix XY routing would push through it.
func runCircuitPattern(f fabric, sc Scenario) (*Result, error) {
	sp, inj, err := sc.patternSetup()
	if err != nil {
		return nil, err
	}
	p := f.coreParams()
	pr, err := mesh.RunPattern(mesh.PatternConfig{
		W: sc.MeshWidth, H: sc.MeshHeight,
		Cycles: sc.Cycles, FreqMHz: sc.FreqMHz,
		Lib: f.mustLib(), Gated: f.Gated,
		Spatial: sp, Injection: inj,
		FlipProb: sc.Data.FlipProb,
		Seed:     sc.Seed, WordsPerFlow: sc.WordsPerStream,
		Params: &p, Kernel: f.simKernel(),
		Observe: f.observeKernel(),
		Window:  sc.window(),
		Obs:     f.obs,
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

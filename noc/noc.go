// Package noc is the public façade of the reproduction: one Simulator
// that runs a Scenario over any of the paper's three network fabrics —
// the proposed lane-division circuit-switched router, the packet-switched
// virtual-channel baseline and the Æthereal-style TDM comparator — and
// returns structured, JSON-marshalable Results (latency distribution,
// throughput, power breakdown).
//
// The three fabrics are interchangeable behind the Fabric interface,
// built by CircuitSwitched, PacketSwitched and AetherealTDM (or
// declaratively from a FabricSpec) and tuned with functional options
// (WithLanes, WithBufferDepth, WithClockGating, ...). One fabric type
// implements all three kinds: every knob is declared once, as a
// FabricSpec field its option sets, and one Run dispatches a scenario
// on its shape and the fabric's kind. Invalid option combinations
// surface as errors from Fabric.Validate, which NewSimulator and Run
// call for you:
//
//	sim, err := noc.NewSimulator(
//		noc.CircuitSwitched(noc.WithClockGating(true)),
//		noc.PacketSwitched(noc.WithBufferDepth(4)),
//		noc.AetherealTDM(),
//	)
//	if err != nil { ... }
//	sc, _ := noc.PaperScenario("IV")
//	results, err := sim.Run(sc)
//
// A Scenario is one of the paper's single-router test scenarios
// (Table 3 streams, Fig. 8 combinations), a mesh workload run that maps
// whole wireless applications (HiperLAN/2, UMTS, DRM) onto a W×H NoC
// via the Central Coordination Node, or a synthetic traffic-pattern run
// (Scenario.Pattern/Injection: spatial patterns like uniform-random,
// transpose or hotspot crossed with stochastic injection processes —
// CBR, Bernoulli, Poisson, bursty on-off) — see Scenario, Patterns and
// InjectionProcesses.
//
// Batch comparisons are first class: Sweep executes a SweepSpec — a
// set of fabric configurations crossed with an explicit scenario list
// or a cartesian parameter grid — across a bounded worker pool and
// streams typed SweepCells in deterministic order, with JSON and CSV
// encoders (SweepJSON, SweepCSV). Each cell runs with its own derived
// RNG seed, so sweep output is byte-identical for any worker count.
//
// Beyond simulation, the package exposes the paper's full evaluation:
// Experiments lists every table/figure reproduction, RunExperiment
// renders one as text (RunExperimentsParallel measures many at once)
// and ExperimentsJSON returns their typed results as JSON documents;
// RenderSynthTable and friends print the synthesis model (Table 4);
// CaptureWaveform records the lane-level timing diagram the trace
// subsystem produces.
package noc

import (
	"fmt"
)

// Kind identifies a fabric implementation.
type Kind string

const (
	// KindCircuit is the paper's lane-division circuit-switched router.
	KindCircuit Kind = "circuit"
	// KindPacket is the packet-switched virtual-channel baseline.
	KindPacket Kind = "packet"
	// KindTDM is the Æthereal-style slot-table TDM comparator.
	KindTDM Kind = "aethereal"
)

// Fabric is one interchangeable network implementation: it validates its
// configuration and executes Scenarios.
type Fabric interface {
	// Kind identifies the implementation.
	Kind() Kind
	// String describes the fabric and its configuration.
	String() string
	// Validate checks the fabric's option-derived configuration.
	Validate() error
	// Run executes the scenario and returns a populated Result.
	Run(sc Scenario) (*Result, error)
}

// CircuitSwitched returns the paper's proposed fabric: the lane-division
// circuit-switched router (4 lanes × 4 bit per port by default).
// Relevant options: WithLanes, WithClockGating, WithLibraryCorner,
// WithLatencyWords, WithNodeTrace.
func CircuitSwitched(opts ...Option) Fabric {
	return newFabric(KindCircuit, opts)
}

// PacketSwitched returns the baseline fabric: the packet-switched
// virtual-channel router (4 VCs × 8 flits by default). Relevant options:
// WithVirtualChannels, WithBufferDepth, WithLibraryCorner,
// WithLatencyWords.
func PacketSwitched(opts ...Option) Fabric {
	return newFabric(KindPacket, opts)
}

// AetherealTDM returns the comparator fabric: the Æthereal-style
// slot-table TDM router (32 slots, 16-word BE FIFOs by default).
// Relevant options: WithSlots, WithBEDepth, WithLibraryCorner.
func AetherealTDM(opts ...Option) Fabric {
	return newFabric(KindTDM, opts)
}

// Simulator runs Scenarios over a set of fabrics.
type Simulator struct {
	fabrics []Fabric
}

// NewSimulator returns a simulator over the given fabrics, validating
// each. With no arguments it covers all three fabrics at the paper's
// default configuration.
func NewSimulator(fabrics ...Fabric) (*Simulator, error) {
	if len(fabrics) == 0 {
		fabrics = []Fabric{CircuitSwitched(), PacketSwitched(), AetherealTDM()}
	}
	for _, f := range fabrics {
		if err := f.Validate(); err != nil {
			return nil, fmt.Errorf("noc: fabric %s: %w", f.Kind(), err)
		}
	}
	return &Simulator{fabrics: fabrics}, nil
}

// Fabrics returns the simulator's fabrics in run order.
func (s *Simulator) Fabrics() []Fabric { return s.fabrics }

// Run executes the scenario on every fabric and returns one Result per
// fabric, in the order the fabrics were given.
func (s *Simulator) Run(sc Scenario) ([]*Result, error) {
	var out []*Result
	for _, f := range s.fabrics {
		r, err := f.Run(sc)
		if err != nil {
			return nil, fmt.Errorf("noc: %s: %w", f.Kind(), err)
		}
		out = append(out, r)
	}
	return out, nil
}

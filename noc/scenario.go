package noc

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"

	"repro/internal/core"
	"repro/internal/pattern"
	"repro/internal/stats"
	"repro/internal/traffic"
)

// Port identifies one of the router's five bidirectional ports.
type Port int

// The five ports of the paper's router: the tile interface plus the four
// mesh directions.
const (
	Tile Port = iota
	North
	East
	South
	West
)

var portNames = [...]string{"tile", "north", "east", "south", "west"}

// String returns the port's lower-case name.
func (p Port) String() string {
	if p < 0 || int(p) >= len(portNames) {
		return fmt.Sprintf("port(%d)", int(p))
	}
	return portNames[p]
}

// Valid reports whether the port is one of the five defined ports.
func (p Port) Valid() bool { return p >= Tile && p <= West }

// corePort converts to the internal representation (same ordering).
func (p Port) corePort() core.Port { return core.Port(p) }

// MarshalJSON renders the port as its name.
func (p Port) MarshalJSON() ([]byte, error) {
	return json.Marshal(p.String())
}

// UnmarshalJSON parses a port name (case insensitive).
func (p *Port) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	for i, n := range portNames {
		if strings.EqualFold(s, n) {
			*p = Port(i)
			return nil
		}
	}
	return fmt.Errorf("noc: unknown port %q", s)
}

// Stream is one unidirectional data stream through the router, at 100%
// of a lane's bandwidth when the pattern's load is 1 (Table 3).
type Stream struct {
	// ID is the stream number (1-based); it selects the lane/VC/slot
	// share the stream occupies.
	ID int `json:"id"`
	// In and Out are the ports the stream enters and leaves on.
	In  Port `json:"in"`
	Out Port `json:"out"`
}

// Pattern is the data knob of the paper's test set.
type Pattern struct {
	// FlipProb is the expected bit-flip fraction between consecutive
	// words, in [0,1] (0 best case, 0.5 typical, 1 worst case).
	FlipProb float64 `json:"flip_prob"`
	// Load is the offered load as a fraction of a lane's bandwidth, in
	// (0,1].
	Load float64 `json:"load"`
}

// DefaultPattern returns the paper's standard data case: random data
// (50% bit flips) at 100% load.
func DefaultPattern() Pattern { return Pattern{FlipProb: 0.5, Load: 1} }

// Injection configures the temporal injection process of a synthetic
// pattern scenario: which stochastic process times each node's words
// and at what rate.
type Injection struct {
	// Process names the temporal process: "cbr", "bernoulli", "poisson"
	// (the default) or "onoff". See InjectionProcesses.
	Process string `json:"process,omitempty"`
	// Rate is the mean injection rate in words per cycle per node, in
	// (0,1].
	Rate float64 `json:"rate"`
	// Burstiness is the mean burst length in words for the onoff
	// process (>= 1; zero selects the default of 4, matching
	// ParseInjection); ignored by the others.
	Burstiness float64 `json:"burstiness,omitempty"`
}

// DefaultInjection returns the default temporal process of a pattern
// scenario: sparse Poisson arrivals at 0.05 words per cycle per node.
func DefaultInjection() Injection { return Injection{Process: "poisson", Rate: 0.05} }

// internal converts to the internal representation, validating. An
// unset burstiness on the onoff process takes the same default as
// ParseInjection, so the struct and string entry points accept the
// same logical specs.
func (i Injection) internal() (pattern.Injection, error) {
	proc, err := pattern.ParseProcess(i.Process)
	if err != nil {
		return pattern.Injection{}, fmt.Errorf("noc: %w", err)
	}
	out := pattern.Injection{Proc: proc, Rate: i.Rate, Burstiness: i.Burstiness}
	if out.Proc == pattern.OnOff && out.Burstiness == 0 {
		out.Burstiness = pattern.DefaultBurstiness
	}
	if err := out.Validate(); err != nil {
		return pattern.Injection{}, fmt.Errorf("noc: %w", err)
	}
	return out, nil
}

// ParseInjection parses an injection spec "process:rate[:burstiness]"
// (e.g. "poisson:0.05", "onoff:0.1:8"); a bare rate selects Poisson.
// It is the parser behind the nocbench -inject flag.
func ParseInjection(s string) (Injection, error) {
	inj, err := pattern.ParseInjection(s)
	if err != nil {
		return Injection{}, fmt.Errorf("noc: %w", err)
	}
	return Injection{Process: inj.Proc.String(), Rate: inj.Rate, Burstiness: inj.Burstiness}, nil
}

// Patterns lists the spatial traffic patterns a pattern Scenario can
// use: "uniform", "transpose", "bitcomp", "bitrev", "hotspot" (optional
// traffic fraction as "hotspot:0.7"), "neighbour" and "perm" (a seeded
// random permutation).
func Patterns() []string { return pattern.Names() }

// InjectionProcesses lists the temporal injection processes: "cbr",
// "bernoulli", "poisson", "onoff".
func InjectionProcesses() []string { return pattern.ProcessNames() }

// Scenario describes one simulation: either a single-router test (the
// paper's Fig. 8 scenarios, or custom Streams) or — when Workloads is
// set — a mesh run that maps whole wireless applications onto a W×H NoC.
type Scenario struct {
	// Name labels the scenario in results.
	Name string `json:"name"`
	// FreqMHz is the network clock (default 25, the paper's Figure 9/10
	// operating point).
	FreqMHz float64 `json:"freq_mhz"`
	// Cycles is the simulated length (default 5000 for single-router
	// runs — 200 µs at 25 MHz — and 20000 for workload runs).
	Cycles int `json:"cycles"`
	// Data is the data pattern driving the streams (bit-flip fraction
	// and offered load). The zero value means DefaultPattern.
	Data Pattern `json:"data"`
	// Streams are the concurrently active streams of a single-router
	// scenario. Empty with no Workloads reproduces scenario I (the
	// static offset measurement).
	Streams []Stream `json:"streams,omitempty"`
	// MeshWidth and MeshHeight give the NoC dimensions of a workload
	// or pattern run (default 4×3 for workloads, 8×8 for patterns), from
	// 2×2 up to 65,536 nodes.
	MeshWidth  int `json:"mesh_width,omitempty"`
	MeshHeight int `json:"mesh_height,omitempty"`
	// Workloads names the applications to map concurrently onto the
	// mesh: "hiperlan2", "umts", "drm". Setting it switches the
	// scenario to a mesh workload run.
	Workloads []string `json:"workloads,omitempty"`
	// Pattern names a synthetic spatial traffic pattern (see Patterns).
	// Setting it switches the scenario to a pattern run: the circuit
	// fabric simulates the whole MeshWidth×MeshHeight mesh with one
	// single-lane circuit per pattern flow, while the packet and TDM
	// fabrics (single-router models) are driven with the port-to-port
	// traffic the pattern XY-routes through the mesh-centre router.
	// Mutually exclusive with Streams and Workloads.
	Pattern string `json:"pattern,omitempty"`
	// Injection is the temporal process timing each node's words in a
	// pattern run; nil means DefaultInjection.
	Injection *Injection `json:"injection,omitempty"`
	// Seed is the run-level base seed mixed into every stream source's
	// RNG. Zero selects the paper-default seeding (sources seeded by
	// stream id alone). The Sweep engine assigns each cell a
	// deterministic seed derived from the spec seed and the cell index,
	// so sweep results are reproducible regardless of scheduling.
	Seed uint64 `json:"seed,omitempty"`
	// Replications runs the scenario R times with independent seeds
	// drawn from a SplitMix64 replication stream (disjoint from the
	// sweep engine's per-cell seed stream) and aggregates every Result
	// metric into mean/min/max/CI95 — Result.Replication carries the
	// aggregates, and the point fields echo replication 0. 0 and 1
	// both mean a single run. The Sweep engine fans the replications
	// of every cell through its worker pool as individual jobs, so a
	// replicated sweep parallelizes at replication granularity while
	// output stays byte-identical for any worker count.
	Replications int `json:"replications,omitempty"`
	// WarmupCycles truncates a pattern run's measurement window: words
	// injected or delivered during the first WarmupCycles are excluded
	// from the reported statistics, so replication confidence
	// intervals are not biased by the empty-network startup transient.
	// The circuit mesh truncates counts, latency and the throughput
	// window; the packet/TDM single-router projections truncate the
	// latency distribution. Pattern scenarios only.
	WarmupCycles int `json:"warmup_cycles,omitempty"`
	// WarmupAuto detects the warm-up automatically with the MSER-5
	// steady-state rule over the delivery-latency sequence. Mutually
	// exclusive with WarmupCycles; pattern scenarios only.
	WarmupAuto bool `json:"warmup_auto,omitempty"`
	// WordsPerStream caps the words each stream source (or, in a
	// pattern run, each flow source) emits; 0 means unlimited (the
	// paper's open-loop scenarios). The packet fabrics round the cap up
	// to their packet boundary, since a wormhole packet must close with
	// its Tail flit. With a cap the run is a finite workload: sources
	// retire once their budget is spent and the network drains, and the
	// run fast-forwards the drained tail. Ignored by workload runs,
	// whose channels are rate-driven.
	WordsPerStream uint64 `json:"words_per_stream,omitempty"`

	// poolLatency asks the run to retain its raw per-word latency
	// samples so a replicated run can pool them into one distribution
	// (Replication.PooledLatency). Set by replicaScenario; not part of
	// the wire format — a single run's JSON output is identical with or
	// without it.
	poolLatency bool
}

// window is the scenario's latency measurement request, built once per
// run for the fabric's runner.
func (s Scenario) window() stats.Window {
	return stats.Window{Warmup: s.WarmupCycles, Auto: s.WarmupAuto, Retain: s.poolLatency}
}

// IsWorkload reports whether the scenario is a mesh workload run.
func (s Scenario) IsWorkload() bool { return len(s.Workloads) > 0 }

// IsPattern reports whether the scenario is a synthetic-pattern run.
func (s Scenario) IsPattern() bool { return s.Pattern != "" }

// withDefaults fills unset knobs with the paper's defaults.
func (s Scenario) withDefaults() Scenario {
	if s.FreqMHz == 0 {
		s.FreqMHz = 25
	}
	if s.Cycles == 0 {
		if s.IsWorkload() {
			s.Cycles = 20000
		} else {
			s.Cycles = 5000
		}
	}
	if s.Data == (Pattern{}) {
		s.Data = DefaultPattern()
	}
	if s.IsWorkload() {
		if s.MeshWidth == 0 {
			s.MeshWidth = 4
		}
		if s.MeshHeight == 0 {
			s.MeshHeight = 3
		}
	}
	if s.IsPattern() {
		if s.MeshWidth == 0 {
			s.MeshWidth = 8
		}
		if s.MeshHeight == 0 {
			s.MeshHeight = 8
		}
		if s.Injection == nil {
			inj := DefaultInjection()
			s.Injection = &inj
		}
	}
	return s
}

// Validate checks the scenario (after defaulting; Run applies defaults
// for you).
func (s Scenario) Validate() error {
	// Each range check is written so that NaN fails it too.
	if !(s.FreqMHz > 0) || math.IsInf(s.FreqMHz, 1) {
		return fmt.Errorf("noc: scenario %q: frequency %v must be finite and positive", s.Name, s.FreqMHz)
	}
	if s.Cycles < 1 {
		return fmt.Errorf("noc: scenario %q: need at least 1 cycle", s.Name)
	}
	if !(s.Data.FlipProb >= 0 && s.Data.FlipProb <= 1) {
		return fmt.Errorf("noc: scenario %q: flip probability %v out of [0,1]",
			s.Name, s.Data.FlipProb)
	}
	if !(s.Data.Load > 0 && s.Data.Load <= 1) {
		return fmt.Errorf("noc: scenario %q: load %v out of (0,1]", s.Name, s.Data.Load)
	}
	if s.Replications < 0 {
		return fmt.Errorf("noc: scenario %q: negative replication count %d", s.Name, s.Replications)
	}
	if s.Replications > maxSweepJobs {
		return fmt.Errorf("noc: scenario %q: %d replications exceed the bound of %d", s.Name, s.Replications, maxSweepJobs)
	}
	if (s.WarmupCycles != 0 || s.WarmupAuto) && !s.IsPattern() {
		return fmt.Errorf("noc: scenario %q: warm-up truncation applies to pattern scenarios only", s.Name)
	}
	if err := s.window().Check(s.Cycles); err != nil {
		return fmt.Errorf("noc: scenario %q: %w", s.Name, err)
	}
	if s.IsPattern() {
		if len(s.Streams) > 0 || s.IsWorkload() {
			return fmt.Errorf("noc: scenario %q: pattern is mutually exclusive with streams and workloads", s.Name)
		}
		if _, err := pattern.ParseSpatial(s.Pattern); err != nil {
			return fmt.Errorf("noc: scenario %q: %w", s.Name, err)
		}
		if err := checkMesh(s.MeshWidth, s.MeshHeight); err != nil {
			return fmt.Errorf("noc: scenario %q: pattern %w", s.Name, err)
		}
		if s.Injection != nil {
			if _, err := s.Injection.internal(); err != nil {
				return fmt.Errorf("noc: scenario %q: %w", s.Name, err)
			}
		}
		return nil
	}
	if s.IsWorkload() {
		if len(s.Streams) > 0 {
			return fmt.Errorf("noc: scenario %q: streams and workloads are mutually exclusive", s.Name)
		}
		if err := checkMesh(s.MeshWidth, s.MeshHeight); err != nil {
			return fmt.Errorf("noc: scenario %q: workload %w", s.Name, err)
		}
		for _, wl := range s.Workloads {
			if _, err := workloadGraph(wl, s.MeshWidth*s.MeshHeight); err != nil {
				return err
			}
		}
		return nil
	}
	seen := map[int]bool{}
	for _, st := range s.Streams {
		if st.ID < 1 {
			return fmt.Errorf("noc: scenario %q: stream ID %d must be >= 1", s.Name, st.ID)
		}
		if seen[st.ID] {
			return fmt.Errorf("noc: scenario %q: duplicate stream ID %d", s.Name, st.ID)
		}
		seen[st.ID] = true
		if !st.In.Valid() || !st.Out.Valid() {
			return fmt.Errorf("noc: scenario %q: stream %d has an invalid port", s.Name, st.ID)
		}
		if st.In == st.Out {
			return fmt.Errorf("noc: scenario %q: stream %d enters and leaves on %v",
				s.Name, st.ID, st.In)
		}
	}
	return nil
}

// maxMeshNodes bounds the mesh a run or a Network may build: 256×256
// nodes, sixteen times the 64×64 hotspot study.
const maxMeshNodes = 256 * 256

// checkMesh rejects a W×H mesh under 2×2 or over maxMeshNodes nodes.
// Each side is compared before the two are multiplied, so no size from
// outside input (a sweep grid, a CLI flag, a JSON scenario) overflows
// or reaches mesh construction.
func checkMesh(w, h int) error {
	if w < 2 || h < 2 || w > maxMeshNodes/2 || h > maxMeshNodes/2 || w*h > maxMeshNodes {
		return fmt.Errorf("mesh %dx%d out of range: need at least 2x2 and at most %d nodes",
			w, h, maxMeshNodes)
	}
	return nil
}

// PaperStreams returns Table 3's stream definitions.
func PaperStreams() []Stream {
	return []Stream{
		{ID: 1, In: Tile, Out: East},
		{ID: 2, In: North, Out: Tile},
		{ID: 3, In: West, Out: East},
	}
}

// PaperScenarios returns the paper's four test scenarios (Fig. 8) at the
// paper's operating point: I carries no data, II adds stream 1, III
// streams 1–2, IV streams 1–3.
func PaperScenarios() []Scenario {
	streams := PaperStreams()
	var out []Scenario
	for i, name := range []string{"I", "II", "III", "IV"} {
		out = append(out, Scenario{Name: name, Streams: streams[:i]}.withDefaults())
	}
	return out
}

// PaperScenario returns the paper scenario with the given roman numeral.
func PaperScenario(name string) (Scenario, error) {
	for _, sc := range PaperScenarios() {
		if sc.Name == name {
			return sc, nil
		}
	}
	return Scenario{}, fmt.Errorf("noc: unknown paper scenario %q (have I..IV)", name)
}

// patternSetup resolves a pattern scenario's spatial pattern and
// injection process to their internal representations. Call after
// withDefaults.
func (s Scenario) patternSetup() (pattern.Spatial, pattern.Injection, error) {
	sp, err := pattern.ParseSpatial(s.Pattern)
	if err != nil {
		return pattern.Spatial{}, pattern.Injection{}, fmt.Errorf("noc: scenario %q: %w", s.Name, err)
	}
	injSpec := s.Injection
	if injSpec == nil {
		def := DefaultInjection()
		injSpec = &def
	}
	inj, err := injSpec.internal()
	if err != nil {
		return pattern.Spatial{}, pattern.Injection{}, fmt.Errorf("noc: scenario %q: %w", s.Name, err)
	}
	return sp, inj, nil
}

// trafficScenario converts to the internal representation.
func (s Scenario) trafficScenario() traffic.Scenario {
	out := traffic.Scenario{Name: s.Name}
	for _, st := range s.Streams {
		out.Streams = append(out.Streams, traffic.Stream{
			ID: st.ID, In: st.In.corePort(), Out: st.Out.corePort(),
		})
	}
	return out
}

package noc

import (
	"encoding/json"
	"fmt"

	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/stats"
)

// Power is the three-bucket power estimate of one run, in the style of
// the paper's Power Compiler split (Section 7.2).
type Power struct {
	// StaticUW is the leakage power in µW.
	StaticUW float64 `json:"static_uw"`
	// InternalUW is the dynamic internal-cell power in µW (clock network
	// plus in-cell toggle energy).
	InternalUW float64 `json:"internal_uw"`
	// SwitchingUW is the dynamic switching (net charging) power in µW.
	SwitchingUW float64 `json:"switching_uw"`
	// TotalUW is the sum of the three buckets.
	TotalUW float64 `json:"total_uw"`
	// DynamicUWPerMHz is the frequency-normalized dynamic power, the
	// unit of the paper's Figure 10.
	DynamicUWPerMHz float64 `json:"dynamic_uw_per_mhz"`
}

// powerFrom converts the internal breakdown.
func powerFrom(b power.Breakdown) *Power {
	return &Power{
		StaticUW:        b.StaticUW,
		InternalUW:      b.InternalUW,
		SwitchingUW:     b.SwitchingUW,
		TotalUW:         b.TotalUW(),
		DynamicUWPerMHz: b.DynamicPerMHz(),
	}
}

// ComponentPower is one entry of a Result's per-component power
// attribution. For single-router runs the components are the meter's
// activity classes (the clock network, register/gate/link/buffer-bit
// toggles, leakage); for mesh workload runs they are the individual
// routers, each with its own meter fed by its own activity. In both
// cases the entries' TotalUW sums (within float tolerance) to the
// assembly-level Power.TotalUW.
type ComponentPower struct {
	// Component names the entry: an activity class ("clock",
	// "register", "leakage", ...) or a mesh node ("node(1,2)").
	Component string `json:"component"`
	// StaticUW is the entry's leakage share in µW.
	StaticUW float64 `json:"static_uw"`
	// DynamicUW is the entry's dynamic power in µW.
	DynamicUW float64 `json:"dynamic_uw"`
	// TotalUW is the entry's total power in µW.
	TotalUW float64 `json:"total_uw"`
}

// attributionComponents converts a meter's class attribution plus the
// design's leakage into the per-component form. The attribution slice is
// already deterministically ordered (sorted by class); leakage goes
// last, keeping classes grouped.
func attributionComponents(att []power.AttributionEntry, staticUW float64) []ComponentPower {
	out := make([]ComponentPower, 0, len(att)+1)
	for _, e := range att {
		out = append(out, ComponentPower{
			Component: e.Class,
			DynamicUW: e.UW,
			TotalUW:   e.UW,
		})
	}
	out = append(out, ComponentPower{
		Component: "leakage",
		StaticUW:  staticUW,
		TotalUW:   staticUW,
	})
	return out
}

// nodeComponents converts per-node breakdowns (row-major over a W×H
// mesh) into the per-component form.
func nodeComponents(nodes []power.Breakdown, w int) []ComponentPower {
	out := make([]ComponentPower, 0, len(nodes))
	for i, b := range nodes {
		out = append(out, ComponentPower{
			Component: fmt.Sprintf("node(%d,%d)", i%w, i/w),
			StaticUW:  b.StaticUW,
			DynamicUW: b.DynamicUW(),
			TotalUW:   b.TotalUW(),
		})
	}
	return out
}

// Latency summarizes the word-delivery latency distribution of a run, in
// clock cycles.
type Latency struct {
	// Words is the number of timed deliveries.
	Words int `json:"words"`
	// MeanCycles, MinCycles and MaxCycles describe the distribution.
	MeanCycles float64 `json:"mean_cycles"`
	MinCycles  float64 `json:"min_cycles"`
	MaxCycles  float64 `json:"max_cycles"`
	// StdDevCycles is the population standard deviation.
	StdDevCycles float64 `json:"stddev_cycles"`
	// JitterCycles is max minus min — zero for an established circuit,
	// the paper's bounded-latency guarantee in its strongest form.
	JitterCycles float64 `json:"jitter_cycles"`
	// Samples holds the raw per-word latency observations when the run
	// was asked to retain them (replicated runs pool these into
	// Replication.PooledLatency). Excluded from the wire format: the
	// summary above is the stable cross-kernel contract.
	Samples []float64 `json:"-"`
}

// latencyFrom converts a measured series.
func latencyFrom(s stats.Series) *Latency {
	if s.N() == 0 {
		return nil
	}
	return &Latency{
		Samples:      s.Samples(),
		Words:        s.N(),
		MeanCycles:   s.Mean(),
		MinCycles:    s.Min(),
		MaxCycles:    s.Max(),
		StdDevCycles: s.StdDev(),
		JitterCycles: s.Max() - s.Min(),
	}
}

// Channel is the outcome of one guaranteed-throughput channel of a
// workload run.
type Channel struct {
	// Workload names the application the channel belongs to.
	Workload string `json:"workload"`
	// Name is the channel's name in the application graph.
	Name string `json:"name"`
	// Lanes is the number of parallel lane paths allocated.
	Lanes int `json:"lanes"`
	// Hops is the route length in routers.
	Hops int `json:"hops"`
	// RequiredMbps and AchievedMbps compare the requirement against the
	// measured delivery rate.
	RequiredMbps float64 `json:"required_mbps"`
	AchievedMbps float64 `json:"achieved_mbps"`
	// WordsDelivered counts words that arrived at the destination tile.
	WordsDelivered uint64 `json:"words_delivered"`
	// Met reports whether everything offered arrived (minus an
	// in-flight allowance for words still in converters and links).
	Met bool `json:"met"`
}

// Placement records where a workload process was mapped.
type Placement struct {
	// Workload names the application.
	Workload string `json:"workload"`
	// Process is the process name in the application graph.
	Process string `json:"process"`
	// X and Y are the tile coordinates.
	X int `json:"x"`
	Y int `json:"y"`
}

// Result is the structured outcome of running one Scenario on one
// Fabric. It marshals to JSON.
type Result struct {
	// Fabric and Scenario identify the run.
	Fabric   Kind   `json:"fabric"`
	Scenario string `json:"scenario"`
	// FreqMHz and Cycles echo the operating point.
	FreqMHz float64 `json:"freq_mhz"`
	Cycles  int     `json:"cycles"`
	// WarmupCycles is the effective warm-up of a pattern run: the
	// scenario's explicit truncation, or the MSER-detected steady-state
	// cycle when WarmupAuto was set. Statistics cover the measurement
	// window [WarmupCycles, Cycles); on the circuit mesh that includes
	// the word counts and the throughput window, on the packet/TDM
	// projections the latency distribution.
	WarmupCycles uint64 `json:"warmup_cycles,omitempty"`
	// WordsSent and WordsDelivered count 16-bit data words offered by
	// all sources and delivered at an observable endpoint. The circuit-
	// and packet-switched routers can only observe streams terminating
	// at the tile port end to end; the TDM functional model observes
	// every output port, so its count covers all streams.
	WordsSent      uint64 `json:"words_sent"`
	WordsDelivered uint64 `json:"words_delivered"`
	// ThroughputMbps is the aggregate delivered bandwidth.
	ThroughputMbps float64 `json:"throughput_mbps"`
	// Power is the three-bucket estimate (nil when the run measured
	// nothing, which does not happen for the built-in fabrics).
	Power *Power `json:"power,omitempty"`
	// PerComponent attributes the run's power below the assembly level:
	// per activity class for single-router runs, per router for mesh
	// workload runs. Entries are deterministically ordered and their
	// totals sum (within float tolerance) to Power.TotalUW.
	PerComponent []ComponentPower `json:"per_component,omitempty"`
	// Latency is the word-delivery latency distribution; nil when the
	// scenario has no observable stream or latency was disabled. The
	// TDM fabric measures it in-run; the circuit- and packet-switched
	// fabrics measure it with a canonical single-stream North→Tile
	// harness built from the fabric's configuration and the scenario's
	// load (with background contention when the scenario's streams
	// share an output port) — the router's characteristic latency at
	// that operating point, not a per-stream trace of this exact run.
	Latency *Latency `json:"latency,omitempty"`
	// Channels and Placements describe workload runs.
	Channels   []Channel   `json:"channels,omitempty"`
	Placements []Placement `json:"placements,omitempty"`
	// LinkUtilization is the fraction of mesh lane capacity allocated
	// (workload and circuit pattern runs).
	LinkUtilization float64 `json:"link_utilization,omitempty"`
	// FlowsRequested and FlowsEstablished describe pattern runs: how
	// many flows the spatial pattern generated and how many the fabric
	// admitted (lane paths on the circuit mesh, slot-table reservations
	// on TDM; the packet router admits everything and queues instead).
	FlowsRequested   int `json:"flows_requested,omitempty"`
	FlowsEstablished int `json:"flows_established,omitempty"`
	// NodeVCD is the captured waveform of node (0,0) when WithNodeTrace
	// was requested on a workload run.
	NodeVCD []byte `json:"node_vcd,omitempty"`
	// Replication carries the mean/min/max/CI95 aggregates across a
	// replicated run (Scenario.Replications > 1). The point fields
	// above echo replication 0; the aggregates are the statistically
	// meaningful figures.
	Replication *ReplicationStats `json:"replication,omitempty"`
	// Metrics is the deterministic sorted snapshot of the run's metrics
	// registry when WithMetrics was enabled; nil when metrics were off.
	// It is the run's one off-wire diagnostics surface:
	//   - kernel.parked, kernel.activations and kernel.polls gauge the
	//     last simulation world the run executed on (parked components
	//     at the end, park exits, Quiescent polls; the first two stay 0
	//     outside KernelActive);
	//   - mesh.alloc.* count the circuit mesh's lane-allocator probes,
	//     rejections and route hops;
	//   - cache.hits and cache.misses count the run's result-cache
	//     lookups under WithCache, and cellcache.* gauge the shared
	//     store.
	// Excluded from the wire format so Result output bytes are identical
	// with metrics on or off. A run served from the cache simulates
	// nothing, so its snapshot carries only the cache metrics.
	Metrics []obs.Sample `json:"-"`

	// cacheHit records that Cache.runThrough served this Result from
	// the cache; the sweep engine counts it in SweepProgress.CacheHits.
	cacheHit bool
}

// MetAllRequirements reports whether every channel of a workload run met
// its guaranteed-throughput requirement.
func (r *Result) MetAllRequirements() bool {
	for _, c := range r.Channels {
		if !c.Met {
			return false
		}
	}
	return true
}

// JSON renders the result as indented JSON.
func (r *Result) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

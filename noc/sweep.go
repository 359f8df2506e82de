package noc

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/obs"
	"repro/internal/sweep"
)

// FabricSpec is the JSON-encodable description of one fabric
// configuration — the declarative counterpart of the CircuitSwitched /
// PacketSwitched / AetherealTDM constructors and their options. Zero
// fields mean the paper's defaults.
type FabricSpec struct {
	// Kind selects the implementation: "circuit", "packet" or
	// "aethereal".
	Kind Kind `json:"kind"`
	// Lanes and LaneWidth configure the circuit-switched router
	// (WithLanes / WithLaneWidth).
	Lanes     int `json:"lanes,omitempty"`
	LaneWidth int `json:"lane_width,omitempty"`
	// VCs and BufferDepth configure the packet-switched router
	// (WithVirtualChannels / WithBufferDepth).
	VCs         int `json:"vcs,omitempty"`
	BufferDepth int `json:"buffer_depth,omitempty"`
	// Slots and BEDepth configure the TDM router (WithSlots /
	// WithBEDepth).
	Slots   int `json:"slots,omitempty"`
	BEDepth int `json:"be_depth,omitempty"`
	// Gated enables the circuit-switched clock-gating ablation.
	Gated bool `json:"gated,omitempty"`
	// Corner selects the library corner: "nominal" (default) or "hvt".
	Corner string `json:"corner,omitempty"`
	// LatencyWords overrides the latency sample count; nil keeps the
	// default, 0 disables the latency measurement (WithLatencyWords).
	LatencyWords *int `json:"latency_words,omitempty"`
	// Kernel selects the simulation kernel: "event" (default), "gated",
	// "naive" or "active" (WithKernel). Results are byte-identical under
	// all of them; the CI equivalence check runs the same sweep under
	// each and compares. Unknown names are rejected at spec validation.
	Kernel string `json:"kernel,omitempty"`
	// SimWorkers bounds the active kernel's Eval shard pool
	// (WithParallelism); 0 means GOMAXPROCS. Results are byte-identical
	// for every value, which the CI worker-count byte-compare checks.
	SimWorkers int `json:"sim_workers,omitempty"`
}

// options converts the spec into the functional options it describes.
func (fs FabricSpec) options() []Option {
	var opts []Option
	if fs.Lanes != 0 {
		opts = append(opts, WithLanes(fs.Lanes))
	}
	if fs.LaneWidth != 0 {
		opts = append(opts, WithLaneWidth(fs.LaneWidth))
	}
	if fs.VCs != 0 {
		opts = append(opts, WithVirtualChannels(fs.VCs))
	}
	if fs.BufferDepth != 0 {
		opts = append(opts, WithBufferDepth(fs.BufferDepth))
	}
	if fs.Slots != 0 {
		opts = append(opts, WithSlots(fs.Slots))
	}
	if fs.BEDepth != 0 {
		opts = append(opts, WithBEDepth(fs.BEDepth))
	}
	if fs.Gated {
		opts = append(opts, WithClockGating(true))
	}
	if fs.Corner != "" {
		opts = append(opts, WithLibraryCorner(fs.Corner))
	}
	if fs.LatencyWords != nil {
		opts = append(opts, WithLatencyWords(*fs.LatencyWords))
	}
	if fs.Kernel != "" {
		opts = append(opts, WithKernel(Kernel(fs.Kernel)))
	}
	if fs.SimWorkers != 0 {
		opts = append(opts, WithParallelism(fs.SimWorkers))
	}
	return opts
}

// Fabric builds and validates the fabric the spec describes.
func (fs FabricSpec) Fabric() (Fabric, error) {
	var f Fabric
	switch fs.Kind {
	case KindCircuit:
		f = CircuitSwitched(fs.options()...)
	case KindPacket:
		f = PacketSwitched(fs.options()...)
	case KindTDM:
		f = AetherealTDM(fs.options()...)
	default:
		return nil, fmt.Errorf("noc: sweep: unknown fabric kind %q (have %s, %s, %s)",
			fs.Kind, KindCircuit, KindPacket, KindTDM)
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	return f, nil
}

// Grid describes a cartesian product of scenario parameters. Each empty
// axis contributes the paper's default; each populated axis multiplies
// the cell count by its length. Grid scenarios are named after their
// base scenario plus one suffix per populated axis, so every cell is
// identifiable in results.
type Grid struct {
	// Scenarios names the base single-router scenarios ("I".."IV");
	// empty means all four. Mutually exclusive with Workloads.
	Scenarios []string `json:"scenarios,omitempty"`
	// Workloads switches the grid to mesh workload scenarios: each
	// entry is a comma-separated application list mapped concurrently
	// (e.g. "hiperlan2,umts,drm") and becomes one base scenario.
	Workloads []string `json:"workloads,omitempty"`
	// Patterns switches the grid to synthetic-pattern scenarios: each
	// entry is a spatial pattern name (see Patterns()), e.g. "uniform"
	// or "hotspot:0.7", and becomes one base scenario. Mutually
	// exclusive with Scenarios and Workloads.
	Patterns []string `json:"patterns,omitempty"`
	// MeshSizes sweeps the mesh as N×N placements — the large-mesh
	// axis the event kernel's fast-forward makes affordable. Requires
	// Workloads or Patterns.
	MeshSizes []int `json:"mesh_sizes,omitempty"`
	// InjectionRates sweeps the pattern injection rate in words per
	// cycle per node (the process shape comes from the base scenario's
	// Injection, default Poisson). Requires Patterns.
	InjectionRates []float64 `json:"injection_rates,omitempty"`
	// Burstiness sweeps the on-off burst length: each value switches
	// the injection process to "onoff" with that mean burst length.
	// Requires Patterns.
	Burstiness []float64 `json:"burstiness,omitempty"`
	// FreqsMHz sweeps the network clock.
	FreqsMHz []float64 `json:"freqs_mhz,omitempty"`
	// Loads sweeps the offered load fraction.
	Loads []float64 `json:"loads,omitempty"`
	// FlipProbs sweeps the data bit-flip fraction.
	FlipProbs []float64 `json:"flip_probs,omitempty"`
	// Cycles sweeps the simulated length.
	Cycles []int `json:"cycles,omitempty"`
}

// bases returns the grid's base scenarios: the named paper scenarios,
// one workload scenario per Workloads entry, or one pattern scenario
// per Patterns entry.
func (g Grid) bases() ([]Scenario, error) {
	kinds := 0
	for _, populated := range []bool{len(g.Scenarios) > 0, len(g.Workloads) > 0, len(g.Patterns) > 0} {
		if populated {
			kinds++
		}
	}
	if kinds > 1 {
		return nil, fmt.Errorf("noc: sweep: grid scenarios, workloads and patterns are mutually exclusive")
	}
	if len(g.Patterns) == 0 && (len(g.InjectionRates) > 0 || len(g.Burstiness) > 0) {
		return nil, fmt.Errorf("noc: sweep: injection_rates and burstiness require patterns")
	}
	if len(g.Patterns) > 0 {
		var out []Scenario
		for _, p := range g.Patterns {
			p = strings.TrimSpace(p)
			if p == "" {
				return nil, fmt.Errorf("noc: sweep: empty pattern entry")
			}
			out = append(out, Scenario{Name: "pat:" + p, Pattern: p})
		}
		return out, nil
	}
	if len(g.Workloads) > 0 {
		var out []Scenario
		for _, entry := range g.Workloads {
			var apps []string
			for _, a := range strings.Split(entry, ",") {
				if a = strings.TrimSpace(a); a != "" {
					apps = append(apps, a)
				}
			}
			if len(apps) == 0 {
				return nil, fmt.Errorf("noc: sweep: empty workload entry %q", entry)
			}
			out = append(out, Scenario{Name: "wl:" + entry, Workloads: apps})
		}
		return out, nil
	}
	if len(g.MeshSizes) > 0 {
		return nil, fmt.Errorf("noc: sweep: mesh_sizes requires workloads or patterns")
	}
	names := g.Scenarios
	if len(names) == 0 {
		names = []string{"I", "II", "III", "IV"}
	}
	var out []Scenario
	for _, name := range names {
		base, err := PaperScenario(name)
		if err != nil {
			return nil, err
		}
		out = append(out, base)
	}
	return out, nil
}

// expand materializes the grid into concrete scenarios in a fixed
// order: scenario-major, then mesh size, frequency, load, flip
// probability and cycle count.
func (g Grid) expand() ([]Scenario, error) {
	bases, err := g.bases()
	if err != nil {
		return nil, err
	}
	var out []Scenario
	for _, base := range bases {
		scs := []Scenario{base}
		scs = expandIntAxis(scs, g.MeshSizes, "mesh", func(sc *Scenario, v int) {
			sc.MeshWidth, sc.MeshHeight = v, v
		})
		scs = expandAxis(scs, g.InjectionRates, "inj", func(sc *Scenario, v float64) {
			inj := DefaultInjection()
			if sc.Injection != nil {
				inj = *sc.Injection
			}
			inj.Rate = v
			sc.Injection = &inj
		})
		scs = expandAxis(scs, g.Burstiness, "burst", func(sc *Scenario, v float64) {
			inj := DefaultInjection()
			if sc.Injection != nil {
				inj = *sc.Injection
			}
			inj.Process = "onoff"
			inj.Burstiness = v
			sc.Injection = &inj
		})
		scs = expandAxis(scs, g.FreqsMHz, "f", func(sc *Scenario, v float64) {
			sc.FreqMHz = v
		})
		scs = expandAxis(scs, g.Loads, "load", func(sc *Scenario, v float64) {
			sc.Data.Load = v
		})
		scs = expandAxis(scs, g.FlipProbs, "flip", func(sc *Scenario, v float64) {
			sc.Data.FlipProb = v
		})
		scs = expandIntAxis(scs, g.Cycles, "cycles", func(sc *Scenario, v int) {
			sc.Cycles = v
		})
		out = append(out, scs...)
	}
	return out, nil
}

// expandAxis multiplies the scenario list by one populated axis,
// suffixing each scenario name with the axis label and value.
func expandAxis(scs []Scenario, values []float64, label string,
	set func(*Scenario, float64)) []Scenario {
	if len(values) == 0 {
		return scs
	}
	out := make([]Scenario, 0, len(scs)*len(values))
	for _, sc := range scs {
		for _, v := range values {
			next := sc
			set(&next, v)
			next.Name = fmt.Sprintf("%s/%s=%s", sc.Name, label,
				strconv.FormatFloat(v, 'g', -1, 64))
			out = append(out, next)
		}
	}
	return out
}

// expandIntAxis is expandAxis for integer-valued axes, keeping labels
// like "cycles=1000000" out of float exponent notation.
func expandIntAxis(scs []Scenario, values []int, label string,
	set func(*Scenario, int)) []Scenario {
	if len(values) == 0 {
		return scs
	}
	out := make([]Scenario, 0, len(scs)*len(values))
	for _, sc := range scs {
		for _, v := range values {
			next := sc
			set(&next, v)
			next.Name = fmt.Sprintf("%s/%s=%d", sc.Name, label, v)
			out = append(out, next)
		}
	}
	return out
}

// SweepSpec describes a batch of runs: a set of fabrics crossed with
// either an explicit scenario list or a cartesian Grid. It marshals to
// JSON, so a spec file drives `nocbench -sweep spec.json`.
type SweepSpec struct {
	// Name labels the sweep in output.
	Name string `json:"name,omitempty"`
	// Fabrics are the fabric configurations to cross with the
	// scenarios; empty means all three fabrics at the paper's defaults.
	Fabrics []FabricSpec `json:"fabrics,omitempty"`
	// Scenarios is an explicit scenario list. Mutually exclusive with
	// Grid; with neither set the sweep covers the paper's four
	// scenarios.
	Scenarios []Scenario `json:"scenarios,omitempty"`
	// Grid is a cartesian parameter grid expanded into scenarios.
	Grid *Grid `json:"grid,omitempty"`
	// Workers bounds the worker pool; 0 means GOMAXPROCS.
	Workers int `json:"workers,omitempty"`
	// Seed is the sweep-level base seed. Every cell derives its own
	// deterministic seed from it and the cell index, so results are
	// identical for any worker count.
	Seed uint64 `json:"seed,omitempty"`
	// Replications is the default replication count for every cell whose
	// scenario does not set its own: each cell runs that many times with
	// independent seeds (drawn from the replication stream salted off
	// the cell seed) and its Result carries mean/min/max/CI95 aggregates.
	// The replications fan through the worker pool as individual jobs,
	// so a replicated sweep parallelizes across replications as well as
	// cells; 0 or 1 means single runs, exactly the pre-replication
	// behaviour.
	Replications int `json:"replications,omitempty"`
	// Kernel is the default simulation kernel for every fabric that does
	// not choose its own: "event" (default), "gated", "naive" or
	// "active". The `nocbench -kernel` flag sets it from the command
	// line; unknown names are rejected at spec validation with the valid
	// kernels listed.
	Kernel string `json:"kernel,omitempty"`
	// SimWorkers is the default Eval shard bound for every fabric that
	// does not choose its own; 0 means GOMAXPROCS. Only the active
	// kernel uses it. The `nocbench -simworkers` flag sets it from the
	// command line.
	SimWorkers int `json:"sim_workers,omitempty"`
	// Cache enables the content-addressed result cache: each cell (and
	// each replication of a replicated cell) is keyed by its fully
	// resolved configuration and served from the cache when a previous
	// run already computed it. Hits are byte-exact, so sweep output is
	// byte-identical with the cache on or off, warm or cold, for any
	// worker count. With no CacheDir the cache is the process-wide
	// in-memory store.
	Cache bool `json:"cache,omitempty"`
	// CacheDir mirrors the cache to a directory so it survives the
	// process (the `nocbench -cache` flag). Setting it implies Cache.
	CacheDir string `json:"cache_dir,omitempty"`
	// Obs configures the sweep's observability sinks — tracing, shared
	// metrics, live progress. It is wired programmatically (nocbench
	// flags, tests) and is not part of the JSON spec format; none of it
	// changes a single Result byte.
	Obs SweepObs `json:"-"`
}

// SweepObs bundles the observability sinks of one sweep execution. The
// zero value disables everything. Enabling any sink leaves every cell's
// Result — and therefore SweepJSON/SweepCSV output — byte-identical:
// sinks observe the sweep, they never steer it.
type SweepObs struct {
	// Trace streams every cell's structured events as one Chrome
	// trace-event JSON document (open in Perfetto): process id = cell
	// index, one thread per event track. Events are cycle-timestamped;
	// wall-clock never appears. Cells served from the cache contribute a
	// cache-hit event instead of a simulation trace.
	Trace io.Writer
	// Metrics, when non-nil, is shared across every cell of the sweep:
	// each run's counters accumulate into it (the registry is safe for
	// concurrent use). Snapshot it after Sweep returns.
	Metrics *obs.Registry
	// Progress receives a snapshot after every completed job, from the
	// emission goroutine in deterministic job order. A non-nil error
	// aborts the sweep. Wall-clock derived figures (rate, ETA, busy
	// fractions) are deliberately left to the caller: the engine reports
	// only counts, so it stays deterministic.
	Progress func(SweepProgress) error
	// Monitor observes worker-pool scheduling (which worker picked up
	// which job, and when it finished). Every job runs on the pool, cache
	// hits included — a hit is served inside its job — so the monitor
	// sees JobStart and JobDone once per job. Calls arrive concurrently
	// from the worker goroutines and must not block. Scheduling is
	// timing-dependent, so a monitor sees a different interleaving every
	// run — results do not.
	Monitor SweepMonitor
}

// SweepMonitor observes sweep worker-pool scheduling. JobStart and
// JobDone are called from worker goroutines (concurrently) with the
// worker index and the global job index.
type SweepMonitor interface {
	JobStart(worker, job int)
	JobDone(worker, job int)
}

// SweepProgress is one live progress snapshot of a running sweep. Jobs
// are the sweep's scheduling units (one per replication of every cell);
// cells complete when their last job folds in.
type SweepProgress struct {
	// CellsDone and CellsTotal count completed and total sweep cells.
	CellsDone, CellsTotal int
	// JobsDone and JobsTotal count completed and total jobs.
	JobsDone, JobsTotal int
	// CacheHits counts completed jobs whose Result the fabric served
	// from the result cache instead of simulating; a warm replay of a
	// fully cached sweep reports CacheHits == JobsTotal.
	CacheHits int
	// Errors counts failed cells so far.
	Errors int
	// CyclesDone sums the simulated cycle counts of completed jobs — the
	// work-proportional progress measure a caller divides by wall-clock
	// for a cycle rate. Cache hits count too: a hit covers its job's
	// cycles without simulating them.
	CyclesDone uint64
}

// monitorAdapter bridges the exported SweepMonitor to the worker pool's
// monitor interface.
type monitorAdapter struct{ m SweepMonitor }

func (a monitorAdapter) JobStart(worker, job int) { a.m.JobStart(worker, job) }
func (a monitorAdapter) JobDone(worker, job int)  { a.m.JobDone(worker, job) }

// cacheSettable lets the sweep engine hand its resolved cache instance
// to the fabrics it builds; each job's run then consults the cache
// itself (Cache.runThrough), hit or miss.
type cacheSettable interface {
	setCache(*Cache)
}

// obsSettable lets the sweep engine inject its observability hooks —
// the shared trace collector (cell-stamped) and metrics registry — into
// the fabrics it builds.
type obsSettable interface {
	setObs(obs.Hooks)
}

// resolveCache opens the spec's cache, if enabled.
func (s SweepSpec) resolveCache() (*Cache, error) {
	if !s.Cache && s.CacheDir == "" {
		return nil, nil
	}
	return OpenCache(s.CacheDir)
}

// ParseSweepSpec decodes a JSON sweep spec (the `nocbench -sweep`
// file format) and validates it. Unknown fields are rejected, so a
// typoed axis name fails loudly instead of silently sweeping nothing.
func ParseSweepSpec(b []byte) (SweepSpec, error) {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var spec SweepSpec
	if err := dec.Decode(&spec); err != nil {
		return SweepSpec{}, fmt.Errorf("noc: sweep spec: %w", err)
	}
	if err := spec.Validate(); err != nil {
		return SweepSpec{}, err
	}
	return spec, nil
}

// SweepCell is one unit of a sweep — a fabric × scenario pair — plus,
// after execution, its Result or error. Cells are delivered in Index
// order regardless of scheduling.
type SweepCell struct {
	// Index is the cell's position in the sweep's deterministic
	// enumeration (fabric-major, then scenario).
	Index int `json:"index"`
	// Seed is the per-cell RNG seed the engine assigned.
	Seed uint64 `json:"seed"`
	// Fabric and Scenario are the generating parameters.
	Fabric   FabricSpec `json:"fabric"`
	Scenario Scenario   `json:"scenario"`
	// Result is the run's outcome; nil when the run failed.
	Result *Result `json:"result,omitempty"`
	// Error carries the run's failure, if any. A failed cell does not
	// abort the sweep.
	Error string `json:"error,omitempty"`
}

// defaultFabrics covers all three fabrics at the paper's defaults.
func defaultFabrics() []FabricSpec {
	return []FabricSpec{{Kind: KindCircuit}, {Kind: KindPacket}, {Kind: KindTDM}}
}

// Validate checks the spec: every fabric must build, the scenario
// source must be unambiguous and every scenario valid.
func (s SweepSpec) Validate() error {
	_, err := s.Cells()
	return err
}

// scenarios resolves the spec's scenario list.
func (s SweepSpec) scenarios() ([]Scenario, error) {
	switch {
	case len(s.Scenarios) > 0:
		return s.Scenarios, nil
	case s.Grid != nil:
		return s.Grid.expand()
	default:
		return PaperScenarios(), nil
	}
}

// Cells validates the spec and enumerates the sweep's cells —
// fabric-major, then scenario — with their per-cell seeds assigned but
// no results yet. The spec is checked and the grid expanded exactly
// once; Validate is this function with the cells discarded.
func (s SweepSpec) Cells() ([]SweepCell, error) {
	if s.Workers < 0 {
		return nil, fmt.Errorf("noc: sweep: negative worker count %d", s.Workers)
	}
	if s.Replications < 0 {
		return nil, fmt.Errorf("noc: sweep: negative replication count %d", s.Replications)
	}
	if len(s.Scenarios) > 0 && s.Grid != nil {
		return nil, fmt.Errorf("noc: sweep: scenarios and grid are mutually exclusive")
	}
	if _, err := ParseKernel(s.Kernel); err != nil {
		return nil, fmt.Errorf("noc: sweep: %w", err)
	}
	fabrics := s.Fabrics
	if len(fabrics) == 0 {
		fabrics = defaultFabrics()
	}
	for i, fs := range fabrics {
		if _, err := fs.Fabric(); err != nil {
			return nil, fmt.Errorf("noc: sweep: fabric %d: %w", i, err)
		}
	}
	scs, err := s.scenarios()
	if err != nil {
		return nil, err
	}
	for _, sc := range scs {
		if err := sc.withDefaults().Validate(); err != nil {
			return nil, err
		}
	}
	cells := make([]SweepCell, 0, len(fabrics)*len(scs))
	for _, fs := range fabrics {
		for _, sc := range scs {
			idx := len(cells)
			cell := SweepCell{Index: idx, Fabric: fs, Scenario: sc}
			// Every cell gets a deterministic RNG seed derived from the
			// spec seed and its index; a seed the scenario already
			// carries is preserved.
			if sc.Seed != 0 {
				cell.Seed = sc.Seed
			} else {
				cell.Seed = cellSeed(s.Seed, idx)
				cell.Scenario.Seed = cell.Seed
			}
			// The spec-level replication default applies to every cell
			// whose scenario does not choose its own count.
			if cell.Scenario.Replications == 0 && s.Replications > 0 {
				cell.Scenario.Replications = s.Replications
			}
			cells = append(cells, cell)
		}
	}
	return cells, nil
}

// cellSeed derives a cell's RNG seed from the sweep seed and the cell
// index with a SplitMix64 step, so neighbouring cells are decorrelated.
func cellSeed(base uint64, index int) uint64 {
	return sweep.Mix64(base + uint64(index)*0x9E3779B97F4A7C15)
}

// cellReps is a cell's job multiplicity in the sweep's fan-out.
func cellReps(sc Scenario) int {
	if sc.Replications > 1 {
		return sc.Replications
	}
	return 1
}

// Sweep executes the spec's cells across a bounded worker pool (default
// GOMAXPROCS) and streams each completed cell to fn in Index order, so
// any output assembled from the cells is byte-identical for any worker
// count. A replicated cell (Scenario.Replications > 1, possibly from
// the spec default) fans its replications through the pool as
// individual jobs — cell-major, so the pool's in-order delivery hands
// the replications of each cell back consecutively and the aggregation
// is a streaming fold over at most one cell's worth of Results. A cell
// whose run fails carries the error in SweepCell.Error and does not
// abort the sweep; Sweep itself returns an error only for an invalid
// spec, a cancelled context or a non-nil error from fn.
func Sweep(ctx context.Context, spec SweepSpec, fn func(SweepCell) error) error {
	cells, err := spec.Cells()
	if err != nil {
		return err
	}
	cache, err := spec.resolveCache()
	if err != nil {
		return err
	}
	type job struct {
		cell, rep int
	}
	type repOut struct {
		res     *Result
		errText string
	}
	var jobs []job
	for i := range cells {
		for rep := 0; rep < cellReps(cells[i].Scenario); rep++ {
			jobs = append(jobs, job{cell: i, rep: rep})
		}
	}
	// One trace collector spans the whole sweep; each job's events are
	// stamped with its cell index, so Perfetto renders one process row
	// per cell.
	var col *obs.Collector
	if spec.Obs.Trace != nil {
		col = obs.NewCollector()
	}
	// cellHooks builds the observability hooks injected into cell i's
	// fabric; the zero Hooks when no sink is configured.
	cellHooks := func(i int) obs.Hooks {
		h := obs.Hooks{Metrics: spec.Obs.Metrics}
		if col != nil {
			h.Tracer = &obs.CellTracer{T: col, Cell: cells[i].Index}
		}
		return h
	}
	// Streaming per-cell fold state: replications arrive consecutively
	// and in order, so one accumulator suffices. The progress counters
	// live on the same single emission goroutine.
	var pending []*Result
	var pendingErr string
	prog := SweepProgress{CellsTotal: len(cells), JobsTotal: len(jobs)}
	var monitor sweep.Monitor
	if spec.Obs.Monitor != nil {
		monitor = monitorAdapter{m: spec.Obs.Monitor}
	}
	err = sweep.RunMonitored(ctx, len(jobs), spec.Workers, monitor,
		func(ctx context.Context, i int) (repOut, error) {
			j := jobs[i]
			cell := cells[j.cell]
			if err := ctx.Err(); err != nil {
				return repOut{}, err
			}
			// The sweep-level kernel is applied at run time, not stored in
			// the cell, so gated and naive runs of the same spec emit
			// byte-identical cells — the property the CI equivalence check
			// compares.
			fs := cell.Fabric
			if fs.Kernel == "" {
				fs.Kernel = spec.Kernel
			}
			if fs.SimWorkers == 0 {
				fs.SimWorkers = spec.SimWorkers
			}
			f, err := fs.Fabric()
			if err != nil {
				return repOut{errText: err.Error()}, nil
			}
			if cache != nil {
				if cs, ok := f.(cacheSettable); ok {
					cs.setCache(cache)
				}
			}
			if h := cellHooks(j.cell); h.Tracer != nil || h.Metrics != nil {
				if os, ok := f.(obsSettable); ok {
					os.setObs(h)
				}
			}
			sc := cell.Scenario
			replicated := sc.Replications > 1
			if replicated {
				// One replication per job; the fold below aggregates.
				sc = replicaScenario(sc, j.rep)
			}
			res, err := f.Run(sc)
			if err != nil {
				if replicated {
					err = fmt.Errorf("noc: replication %d: %w", j.rep, err)
				}
				return repOut{errText: err.Error()}, nil
			}
			return repOut{res: res}, nil
		},
		func(i int, out repOut, err error) error {
			if err != nil {
				return err
			}
			tick := func() error {
				if spec.Obs.Progress == nil {
					return nil
				}
				return spec.Obs.Progress(prog)
			}
			j := jobs[i]
			prog.JobsDone++
			prog.CyclesDone += uint64(cells[j.cell].Scenario.withDefaults().Cycles)
			if out.res != nil && out.res.cacheHit {
				prog.CacheHits++
			}
			if out.res != nil {
				pending = append(pending, out.res)
			}
			if out.errText != "" && pendingErr == "" {
				pendingErr = out.errText
			}
			if j.rep < cellReps(cells[j.cell].Scenario)-1 {
				return tick()
			}
			cell := cells[j.cell]
			switch {
			case pendingErr != "":
				cell.Error = pendingErr
			case len(pending) == 1:
				cell.Result = pending[0]
			default:
				agg, err := aggregateResults(pending)
				if err != nil {
					cell.Error = err.Error()
				} else {
					cell.Result = agg
				}
			}
			pending, pendingErr = pending[:0], ""
			prog.CellsDone++
			if cell.Error != "" {
				prog.Errors++
			}
			if err := tick(); err != nil {
				return err
			}
			return fn(cell)
		})
	if err != nil {
		return err
	}
	if col != nil {
		if err := obs.WriteChrome(spec.Obs.Trace, col.Events()); err != nil {
			return fmt.Errorf("noc: sweep: trace export: %w", err)
		}
	}
	return nil
}

// SweepAll executes the spec and returns every cell in Index order.
func SweepAll(ctx context.Context, spec SweepSpec) ([]SweepCell, error) {
	var out []SweepCell
	if err := Sweep(ctx, spec, func(c SweepCell) error {
		out = append(out, c)
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// SweepJSON executes the spec and streams the cells to w as one
// indented JSON array, in Index order. The output is byte-identical for
// any worker count.
func SweepJSON(ctx context.Context, spec SweepSpec, w io.Writer) error {
	first := true
	if _, err := io.WriteString(w, "[\n"); err != nil {
		return err
	}
	err := Sweep(ctx, spec, func(c SweepCell) error {
		b, err := json.MarshalIndent(c, "  ", "  ")
		if err != nil {
			return err
		}
		if !first {
			if _, err := io.WriteString(w, ",\n"); err != nil {
				return err
			}
		}
		first = false
		if _, err := io.WriteString(w, "  "); err != nil {
			return err
		}
		_, err = w.Write(b)
		return err
	})
	if err != nil {
		return err
	}
	_, err = io.WriteString(w, "\n]\n")
	return err
}

// sweepCSVHeader is the column set of SweepCSV. The point columns come
// from replication 0 of a replicated cell; the *_mean/*_ci95 pairs and
// the replications count are the across-replication aggregates, blank
// for single runs. warmup_cycles is the effective warm-up truncation of
// a pattern run, blank when no warm-up applied.
var sweepCSVHeader = []string{
	"index", "fabric", "scenario", "freq_mhz", "cycles", "load",
	"flip_prob", "pattern", "injection", "seed", "words_sent",
	"words_delivered", "throughput_mbps", "power_total_uw",
	"power_dynamic_uw_per_mhz", "power_components",
	"latency_mean_cycles", "latency_jitter_cycles", "error",
	"replications", "warmup_cycles",
	"throughput_mbps_mean", "throughput_mbps_ci95",
	"power_total_uw_mean", "power_total_uw_ci95",
	"latency_mean_cycles_mean", "latency_mean_cycles_ci95",
}

// injectionCSV renders a pattern scenario's injection process as one
// CSV cell ("poisson:0.05", "onoff:0.1:8"); empty for non-pattern runs.
func injectionCSV(sc Scenario) string {
	if !sc.IsPattern() || sc.Injection == nil {
		return ""
	}
	inj, err := sc.Injection.internal()
	if err != nil {
		return ""
	}
	return inj.String()
}

// componentsCSV flattens the per-component attribution into one cell:
// "name=totalUW" pairs joined by "|". The attribution slice is already
// deterministically ordered, so the cell is byte-identical run to run.
func componentsCSV(cs []ComponentPower, ff func(float64) string) string {
	if len(cs) == 0 {
		return ""
	}
	parts := make([]string, 0, len(cs))
	for _, c := range cs {
		parts = append(parts, c.Component+"="+ff(c.TotalUW))
	}
	return strings.Join(parts, "|")
}

// SweepCSV executes the spec and writes one CSV row per cell, in Index
// order, preceded by a header row.
func SweepCSV(ctx context.Context, spec SweepSpec, w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(sweepCSVHeader); err != nil {
		return err
	}
	ff := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	err := Sweep(ctx, spec, func(c SweepCell) error {
		sc := c.Scenario.withDefaults()
		// Columns appended in sweepCSVHeader order; absent measurements
		// stay blank.
		var sent, delivered, tput, totalUW, dynUW, comps, meanLat, jitter string
		var repsN, warm string
		var tputMean, tputCI, powMean, powCI, latMean, latCI string
		if r := c.Result; r != nil {
			sent = strconv.FormatUint(r.WordsSent, 10)
			delivered = strconv.FormatUint(r.WordsDelivered, 10)
			tput = ff(r.ThroughputMbps)
			if r.Power != nil {
				totalUW = ff(r.Power.TotalUW)
				dynUW = ff(r.Power.DynamicUWPerMHz)
			}
			comps = componentsCSV(r.PerComponent, ff)
			if r.Latency != nil {
				meanLat = ff(r.Latency.MeanCycles)
				jitter = ff(r.Latency.JitterCycles)
			}
			if r.WarmupCycles != 0 {
				warm = strconv.FormatUint(r.WarmupCycles, 10)
			}
			if rs := r.Replication; rs != nil {
				repsN = strconv.Itoa(rs.Replications)
				tputMean = ff(rs.ThroughputMbps.Mean)
				tputCI = ff(rs.ThroughputMbps.CI95)
				if rs.PowerTotalUW != nil {
					powMean = ff(rs.PowerTotalUW.Mean)
					powCI = ff(rs.PowerTotalUW.CI95)
				}
				if rs.LatencyMeanCycles != nil {
					latMean = ff(rs.LatencyMeanCycles.Mean)
					latCI = ff(rs.LatencyMeanCycles.CI95)
				}
			}
		}
		return cw.Write([]string{
			strconv.Itoa(c.Index),
			string(c.Fabric.Kind),
			sc.Name,
			ff(sc.FreqMHz),
			strconv.Itoa(sc.Cycles),
			ff(sc.Data.Load),
			ff(sc.Data.FlipProb),
			sc.Pattern,
			injectionCSV(sc),
			strconv.FormatUint(c.Seed, 10),
			sent,
			delivered,
			tput,
			totalUW,
			dynUW,
			comps,
			meanLat,
			jitter,
			c.Error,
			repsN,
			warm,
			tputMean,
			tputCI,
			powMean,
			powCI,
			latMean,
			latCI,
		})
	})
	if err != nil {
		return err
	}
	cw.Flush()
	return cw.Error()
}

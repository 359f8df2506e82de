package main

// metricDef declares one metric the benchmark reports. End-to-end
// metrics carry the bound BENCHMARK.json fixes for them; per-layer
// metrics instead name the end-to-end metrics they are expected to move
// ("metric@workload"), written down before any measurement so a later
// change can be checked against the prediction.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	Moves  []string
}

// workloadDef declares one benchmark input set.
type workloadDef struct {
	Name string
	Why  string
}

// workloadDefs lists the workloads in run order.
var workloadDefs = []workloadDef{
	{"paper-eval", "the paper's own evaluation: all 19 experiments run serially, as nocbench with no flags does"},
	{"hotspot32", "hotspot:1 on a 32x32 mesh over all 3 fabrics: routers mostly idle, O(N^2) port-flow projection in set-up"},
	{"uniform-dense", "uniform poisson:0.3 on 16x16, circuit fabric: every router busy, so step and kernel cost dominate; no parking or cache"},
	{"sweep-cache", "a cached pattern-sweep session: 27 cells x 2 replications into an empty disk cache, re-run warm, then 2 rates appended"},
}

// sweepPhases are the fresh processes of one sweep-cache pass, in order,
// all on one cache directory: the spec into the empty cache, the same
// spec again, and the spec with rates appended.
var sweepPhases = []string{"cold", "warm", "extend"}

// endToEnd lists the metrics a user of the simulator sees, measured with
// tracing off, each on every workload. The time bounds are about twice
// the widest ten-run spread seen on a host of two shared CPUs (README,
// "End-to-end metrics"); set-up, whose median moves most, gets the
// largest.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.2},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.1},
}

// experimentIDs are the paper-eval inputs: every registered experiment
// at the time the benchmark was defined. The list is fixed here so the
// workload cannot change when the program does.
var experimentIDs = []string{
	"apps", "beload", "crossover", "fig10", "fig9", "fig9gated", "freqsweep",
	"lanes", "latency", "meshpower", "multicast", "psdepth", "schedule",
	"setup", "table1", "table2", "table3", "table4", "window",
}

// Fabric names as the noc package spells them, used in metric names.
var fabricNames = []string{"circuit", "packet", "aethereal"}

// perLayer lists the metrics of single layers, reported by the traced
// run only. A metric of a layer a workload never calls reads 0 there.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	add := func(name, unit, better string, moves ...string) {
		out = append(out, metricDef{Name: name, Unit: unit, Better: better, Moves: moves})
	}
	for _, id := range experimentIDs {
		add("experiments."+id+"_s", "s", "lower", "wall_s@paper-eval")
	}
	hot := []string{"setup_s@hotspot32", "wall_s@hotspot32", "peak_rss_mb@hotspot32"}
	add("pattern.portflows_s", "s", "lower", hot...)
	add("pattern.portflows_alloc_mb", "MB", "lower", hot...)
	add("traffic.packet_run_s", "s", "lower", "wall_s@hotspot32")
	add("traffic.tdm_run_s", "s", "lower", "wall_s@hotspot32")
	meshSetup := []string{"setup_s@hotspot32", "setup_s@uniform-dense"}
	meshRun := []string{"wall_s@uniform-dense", "wall_s@hotspot32"}
	add("mesh.setup_s", "s", "lower", meshSetup...)
	add("mesh.run_s", "s", "lower", meshRun...)
	add("mesh.cycle_us", "us", "lower", meshRun...)
	add("sim.evals", "count", "lower", meshRun...)
	add("sim.skips", "count", "higher", meshRun...)
	add("sim.polls", "count", "lower", meshRun...)
	add("sim.ff_cycles", "count", "higher", meshRun...)
	add("sim.parked", "count", "higher", meshRun...)
	add("sim.activations", "count", "lower", meshRun...)
	add("sim.ns_per_visit", "ns", "lower", meshRun...)
	for _, f := range fabricNames {
		moves := []string{"wall_s@hotspot32"}
		if f == "circuit" {
			moves = append(moves, "wall_s@uniform-dense")
		}
		add("noc.run_s."+f, "s", "lower", moves...)
	}
	add("noc.result_json_s", "s", "lower", "wall_s@hotspot32", "wall_s@uniform-dense")
	for _, f := range fabricNames {
		add("noc.overhead_s."+f, "s", "lower", "wall_s@hotspot32")
	}
	// The sweep pool and the cell cache, once per phase of a sweep-cache
	// pass: each phase's time is a part of the pass.
	sweep := "wall_s@sweep-cache"
	for _, ph := range sweepPhases {
		add("sweep.run_s."+ph, "s", "lower", sweep)
		add("sweep.jobs."+ph, "count", "lower", sweep)
		add("sweep.busy_s."+ph, "s", "lower", sweep)
		add("sweep.pool_busy_frac."+ph, "ratio", "higher", sweep)
		add("sweep.emit_wait_s."+ph, "s", "lower", sweep)
		add("cellcache.hits."+ph, "count", "higher", sweep)
		add("cellcache.misses."+ph, "count", "lower", sweep)
		add("cellcache.puts."+ph, "count", "lower", sweep)
		add("cellcache.warm_hits."+ph, "count", "higher", sweep)
		add("cellcache.warm_stores."+ph, "count", "lower", sweep)
		add("cellcache.hit_ratio."+ph, "ratio", "higher", sweep)
		add("cellcache.lookups_per_job."+ph, "ratio", "lower", sweep)
	}
	add("cellcache.get_us", "us", "lower", sweep)
	add("cellcache.put_us", "us", "lower", sweep)
	add("cellcache.bytes_per_entry", "bytes", "lower", sweep)
	var every, everyRSS []string
	for _, w := range workloadDefs {
		every = append(every, "wall_s@"+w.Name)
		everyRSS = append(everyRSS, "wall_s@"+w.Name, "peak_rss_mb@"+w.Name)
	}
	add("go.alloc_mb", "MB", "lower", everyRSS...)
	add("go.gc_count", "count", "lower", every...)
	// The benchmark's own cost: it moves no metric of the program.
	add("bench.trace_overhead_frac", "ratio", "lower")
	return out
}

// workloadByName returns the named workload's index, or -1.
func workloadByName(name string) int {
	for i, w := range workloadDefs {
		if w.Name == name {
			return i
		}
	}
	return -1
}

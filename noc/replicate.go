package noc

import (
	"fmt"
	"sort"

	"repro/internal/stats"
	"repro/internal/sweep"
)

// This file is the replication axis of the façade: Scenario.Replications
// runs a scenario R times with independent seeds and aggregates every
// Result metric into mean/min/max/CI95, so the paper-reproduction
// figures rest on interval estimates instead of single seeded runs.
// Fabric.Run dispatches here for a standalone replicated scenario; the
// Sweep engine fans the replications of every cell through its worker
// pool as individual jobs and aggregates with the same code.

// replicationSalt separates the per-replication seed stream from the
// sweep engine's per-cell stream: a cell's base seed is XORed with this
// constant before the SplitMix64 step, so the R replication seeds of a
// cell can never collide with the per-cell seeds of neighbouring cells
// derived from the same sweep seed.
const replicationSalt = 0xC2B2AE3D27D4EB4F

// ReplicationSeed returns replication rep's RNG seed for a run whose
// base seed is base: one SplitMix64 step over the salted base, golden-
// ratio strided by the replication index. Exported so tests can pin the
// stream's disjointness from the sweep engine's per-cell seeds.
func ReplicationSeed(base uint64, rep int) uint64 {
	return sweep.Seed(base^replicationSalt, rep)
}

// replicaScenario returns replication rep's scenario: the same knobs
// with the seed drawn from the replication stream and Replications
// cleared, so the fabric runs it exactly once. Each replication also
// retains its raw latency samples so the aggregation can pool them into
// one distribution (retention changes no measured statistic — the same
// observations feed the same summary — so replicated point results stay
// byte-identical to standalone runs of the same seed).
func replicaScenario(sc Scenario, rep int) Scenario {
	sc.Seed = ReplicationSeed(sc.Seed, rep)
	sc.Replications = 0
	sc.poolLatency = true
	return sc
}

// Metric summarizes one Result metric across the replications of a
// run: the across-replication mean, extremes and the half width of the
// 95% confidence interval of the mean (Student-t for the single-digit
// replication counts a sweep typically uses; exactly 0 for fewer than
// two observations or a zero-variance metric).
type Metric struct {
	Mean float64 `json:"mean"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
	CI95 float64 `json:"ci95"`
}

// metricFrom converts an accumulated series.
func metricFrom(s *stats.Series) Metric {
	return Metric{Mean: s.Mean(), Min: s.Min(), Max: s.Max(), CI95: s.CI95()}
}

// ReplicationStats aggregates every Result metric across a replicated
// run. Optional metrics (power, latency, pattern blocking) are nil when
// no replication measured them.
type ReplicationStats struct {
	// Replications is the number of aggregated runs.
	Replications int `json:"replications"`
	// WordsSent and WordsDelivered aggregate the word counters.
	WordsSent      Metric `json:"words_sent"`
	WordsDelivered Metric `json:"words_delivered"`
	// ThroughputMbps aggregates the delivered bandwidth.
	ThroughputMbps Metric `json:"throughput_mbps"`
	// PowerTotalUW and PowerDynamicUWPerMHz aggregate the power
	// estimate.
	PowerTotalUW         *Metric `json:"power_total_uw,omitempty"`
	PowerDynamicUWPerMHz *Metric `json:"power_dynamic_uw_per_mhz,omitempty"`
	// LatencyMeanCycles and LatencyJitterCycles aggregate the per-run
	// latency distribution summaries: the mean of per-run means, not a
	// pooled distribution — each replication is one independent
	// observation of the run-level statistic.
	LatencyMeanCycles   *Metric `json:"latency_mean_cycles,omitempty"`
	LatencyJitterCycles *Metric `json:"latency_jitter_cycles,omitempty"`
	// LinkUtilization aggregates the allocated lane fraction of mesh
	// runs.
	LinkUtilization *Metric `json:"link_utilization,omitempty"`
	// FlowsEstablished and BlockingFraction aggregate a pattern run's
	// admission outcome; the blocking fraction is
	// (requested-established)/requested, the headline blocking metric.
	FlowsEstablished *Metric `json:"flows_established,omitempty"`
	BlockingFraction *Metric `json:"blocking_fraction,omitempty"`
	// PooledLatency is the word-level latency distribution pooled across
	// all replications — every replication's raw per-word observations
	// concatenated in replication order and summarized as one
	// distribution. It complements LatencyMeanCycles, which describes
	// the across-replication spread of the run-level mean: percentiles
	// and tail shape only make sense on the pooled word population. Nil
	// when no replication retained latency samples.
	PooledLatency *LatencyPool `json:"latency_pooled,omitempty"`
}

// LatencyPool summarizes a pooled word-latency distribution, in cycles.
type LatencyPool struct {
	// Words is the pooled observation count — the sum of the per-
	// replication Latency.Words.
	Words int `json:"words"`
	// MeanCycles through MaxCycles are the pooled moments.
	MeanCycles   float64 `json:"mean_cycles"`
	StdDevCycles float64 `json:"stddev_cycles"`
	MinCycles    float64 `json:"min_cycles"`
	MaxCycles    float64 `json:"max_cycles"`
	// P50Cycles, P95Cycles and P99Cycles are nearest-rank percentiles of
	// the pooled population.
	P50Cycles float64 `json:"p50_cycles"`
	P95Cycles float64 `json:"p95_cycles"`
	P99Cycles float64 `json:"p99_cycles"`
	// HistBounds and HistCounts render the pooled histogram:
	// HistCounts[i] counts observations <= HistBounds[i] (and above the
	// previous bound); the final extra count is the overflow beyond the
	// last bound.
	HistBounds []float64 `json:"hist_bounds"`
	HistCounts []int     `json:"hist_counts"`
}

// latencyPoolBounds are the pooled histogram's bucket upper bounds:
// power-of-two cycle counts spanning a single-hop register delay up to
// deep congestion backlogs, with the overflow bucket catching anything
// beyond.
var latencyPoolBounds = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096}

// poolLatencySamples summarizes the concatenated per-replication
// latency observations; nil for an empty pool.
func poolLatencySamples(samples []float64) *LatencyPool {
	if len(samples) == 0 {
		return nil
	}
	var s stats.Series
	h := stats.NewHist(latencyPoolBounds...)
	for _, v := range samples {
		s.Add(v)
		h.Add(v)
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	counts := make([]int, len(latencyPoolBounds)+1)
	for i := range counts {
		counts[i] = h.Count(i)
	}
	return &LatencyPool{
		Words:        s.N(),
		MeanCycles:   s.Mean(),
		StdDevCycles: s.StdDev(),
		MinCycles:    s.Min(),
		MaxCycles:    s.Max(),
		P50Cycles:    stats.Percentile(sorted, 0.50),
		P95Cycles:    stats.Percentile(sorted, 0.95),
		P99Cycles:    stats.Percentile(sorted, 0.99),
		HistBounds:   append([]float64(nil), latencyPoolBounds...),
		HistCounts:   counts,
	}
}

// aggregateResults merges the per-replication Results of one scenario:
// replication 0's Result with the across-replication aggregates
// attached. The inputs must all come from the same fabric × scenario.
func aggregateResults(results []*Result) (*Result, error) {
	if len(results) == 0 {
		return nil, fmt.Errorf("noc: no replications to aggregate")
	}
	var sent, delivered, tput, powTot, powDyn, latMean, latJit, util, est, blocked stats.Series
	havePower, haveLat, haveUtil, havePat := false, false, false, false
	var pooled []float64
	for _, r := range results {
		sent.Add(float64(r.WordsSent))
		delivered.Add(float64(r.WordsDelivered))
		tput.Add(r.ThroughputMbps)
		if r.Power != nil {
			havePower = true
			powTot.Add(r.Power.TotalUW)
			powDyn.Add(r.Power.DynamicUWPerMHz)
		}
		if r.Latency != nil {
			haveLat = true
			latMean.Add(r.Latency.MeanCycles)
			latJit.Add(r.Latency.JitterCycles)
			pooled = append(pooled, r.Latency.Samples...)
		}
		if r.LinkUtilization != 0 {
			haveUtil = true
		}
		util.Add(r.LinkUtilization)
		if r.FlowsRequested > 0 {
			havePat = true
			est.Add(float64(r.FlowsEstablished))
			blocked.Add(float64(r.FlowsRequested-r.FlowsEstablished) / float64(r.FlowsRequested))
		}
	}
	agg := *results[0]
	rs := &ReplicationStats{
		Replications:   len(results),
		WordsSent:      metricFrom(&sent),
		WordsDelivered: metricFrom(&delivered),
		ThroughputMbps: metricFrom(&tput),
	}
	if havePower {
		pt, pd := metricFrom(&powTot), metricFrom(&powDyn)
		rs.PowerTotalUW, rs.PowerDynamicUWPerMHz = &pt, &pd
	}
	if haveLat {
		lm, lj := metricFrom(&latMean), metricFrom(&latJit)
		rs.LatencyMeanCycles, rs.LatencyJitterCycles = &lm, &lj
		rs.PooledLatency = poolLatencySamples(pooled)
	}
	if haveUtil {
		lu := metricFrom(&util)
		rs.LinkUtilization = &lu
	}
	if havePat {
		fe, bf := metricFrom(&est), metricFrom(&blocked)
		rs.FlowsEstablished, rs.BlockingFraction = &fe, &bf
	}
	agg.Replication = rs
	return &agg, nil
}

// runFabric executes the fabric's defaulted, validated scenario with
// its observability hooks already resolved (beginObs): a single run
// goes through the content-addressed cache; a replicated scenario runs
// its replications sequentially — each replication's trace events
// stamped with the replication index, so one collector carries them all
// — and aggregates. Sweep parallelizes replications through its worker
// pool instead of coming through here.
func runFabric(f fabric, sc Scenario) (*Result, error) {
	cache, err := f.resolveCache()
	if err != nil {
		return nil, err
	}
	if sc.Replications > 1 {
		results := make([]*Result, sc.Replications)
		for rep := range results {
			r, err := cache.runThrough(f.withCell(rep), replicaScenario(sc, rep).withDefaults())
			if err != nil {
				return nil, fmt.Errorf("noc: replication %d: %w", rep, err)
			}
			results[rep] = r
		}
		return aggregateResults(results)
	}
	return cache.runThrough(f, sc)
}

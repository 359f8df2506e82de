package noc

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"strconv"
	"strings"
	"testing"
)

// replicatedSpec is a small sweep with the spec-level replication
// default: every cell runs 8 times and carries aggregates.
func replicatedSpec(workers int) SweepSpec {
	return SweepSpec{
		Name: "replicated",
		Grid: &Grid{
			Scenarios: []string{"II", "IV"},
			Cycles:    []int{400},
		},
		Workers:      workers,
		Seed:         7,
		Replications: 8,
	}
}

// TestReplicatedSweepDeterministicAcrossWorkerCounts is the
// replication axis's headline property: fanning 8 replications per
// cell through 1 worker and through 8 workers must emit byte-identical
// JSON and CSV.
func TestReplicatedSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	var j1, j8, c1, c8 bytes.Buffer
	if err := SweepJSON(context.Background(), replicatedSpec(1), &j1); err != nil {
		t.Fatal(err)
	}
	if err := SweepJSON(context.Background(), replicatedSpec(8), &j8); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1.Bytes(), j8.Bytes()) {
		t.Fatal("workers=1 and workers=8 replicated JSON differ")
	}
	if err := SweepCSV(context.Background(), replicatedSpec(1), &c1); err != nil {
		t.Fatal(err)
	}
	if err := SweepCSV(context.Background(), replicatedSpec(8), &c8); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(c1.Bytes(), c8.Bytes()) {
		t.Fatal("workers=1 and workers=8 replicated CSV differ")
	}
}

// TestReplicatedSweepCSVAggregateColumns pins the mean±CI95 column
// contract: a replicated cell fills replications, *_mean and *_ci95;
// the point columns still echo replication 0.
func TestReplicatedSweepCSVAggregateColumns(t *testing.T) {
	var buf bytes.Buffer
	if err := SweepCSV(context.Background(), replicatedSpec(0), &buf); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(strings.NewReader(buf.String())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	col := map[string]int{}
	for i, name := range rows[0] {
		col[name] = i
	}
	for _, name := range []string{
		"replications", "warmup_cycles",
		"throughput_mbps_mean", "throughput_mbps_ci95",
		"power_total_uw_mean", "power_total_uw_ci95",
		"latency_mean_cycles_mean", "latency_mean_cycles_ci95",
	} {
		if _, ok := col[name]; !ok {
			t.Fatalf("header missing %q: %v", name, rows[0])
		}
	}
	if len(rows) != 7 { // header + 3 fabrics x 2 scenarios
		t.Fatalf("rows = %d, want 7", len(rows))
	}
	for _, row := range rows[1:] {
		if row[col["error"]] != "" {
			t.Fatalf("cell failed: %s", row[col["error"]])
		}
		if row[col["replications"]] != "8" {
			t.Fatalf("replications column = %q, want 8", row[col["replications"]])
		}
		// Scenario II's only stream leaves on East, which the circuit-
		// and packet-switched fabrics cannot observe end to end — its
		// throughput is legitimately 0 there, so assert the aggregate
		// columns are numeric and consistent, not positive.
		mean, err := strconv.ParseFloat(row[col["throughput_mbps_mean"]], 64)
		if err != nil || mean < 0 {
			t.Fatalf("throughput mean column %q (%v)", row[col["throughput_mbps_mean"]], err)
		}
		if _, err := strconv.ParseFloat(row[col["throughput_mbps_ci95"]], 64); err != nil {
			t.Fatalf("throughput ci95 column %q not numeric: %v", row[col["throughput_mbps_ci95"]], err)
		}
		// The point column carries replication 0 and must be present.
		if _, err := strconv.ParseFloat(row[col["throughput_mbps"]], 64); err != nil {
			t.Fatalf("point throughput column %q (%v)", row[col["throughput_mbps"]], err)
		}
	}
	// At least the TDM rows (which observe every port) measure real
	// throughput, so the mean columns are not vacuously zero.
	var positive int
	for _, row := range rows[1:] {
		if v, _ := strconv.ParseFloat(row[col["throughput_mbps_mean"]], 64); v > 0 {
			positive++
		}
	}
	if positive == 0 {
		t.Fatal("every throughput mean is zero")
	}
}

// TestReplicationSeedsDisjointFromCellSeeds pins the salt: the
// replication seed stream of any cell never collides with the sweep
// engine's per-cell seed stream, so replications are decorrelated both
// from each other and from neighbouring cells.
func TestReplicationSeedsDisjointFromCellSeeds(t *testing.T) {
	const base = 7
	seen := map[uint64]string{}
	for idx := 0; idx < 512; idx++ {
		s := cellSeed(base, idx)
		if prev, dup := seen[s]; dup {
			t.Fatalf("cell seed %d collides with %s", idx, prev)
		}
		seen[s] = "cell " + strconv.Itoa(idx)
	}
	for idx := 0; idx < 64; idx++ {
		cs := cellSeed(base, idx)
		for rep := 0; rep < 16; rep++ {
			s := ReplicationSeed(cs, rep)
			if prev, dup := seen[s]; dup {
				t.Fatalf("replication seed (cell %d, rep %d) collides with %s", idx, rep, prev)
			}
			seen[s] = "cell " + strconv.Itoa(idx) + " rep " + strconv.Itoa(rep)
		}
	}
}

// TestStandaloneReplicationMatchesSweep pins the two execution paths
// onto each other: Fabric.Run with Replications>1 (sequential) and the
// sweep fan-out (parallel jobs) must aggregate to the same Result.
func TestStandaloneReplicationMatchesSweep(t *testing.T) {
	spec := SweepSpec{
		Fabrics:      []FabricSpec{{Kind: KindCircuit}},
		Grid:         &Grid{Scenarios: []string{"IV"}, Cycles: []int{400}},
		Seed:         3,
		Workers:      4,
		Replications: 5,
	}
	cells, err := SweepAll(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1 || cells[0].Error != "" || cells[0].Result == nil {
		t.Fatalf("unexpected cells: %+v", cells)
	}
	sc := cells[0].Scenario
	direct, err := CircuitSwitched().Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	sweepJSON, err := cells[0].Result.JSON()
	if err != nil {
		t.Fatal(err)
	}
	directJSON, err := direct.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sweepJSON, directJSON) {
		t.Fatalf("sweep and standalone aggregates differ:\n--- sweep ---\n%s\n--- direct ---\n%s",
			sweepJSON, directJSON)
	}
	rs := direct.Replication
	if rs == nil || rs.Replications != 5 {
		t.Fatalf("replication stats = %+v", rs)
	}
	if rs.ThroughputMbps.Min > rs.ThroughputMbps.Mean || rs.ThroughputMbps.Mean > rs.ThroughputMbps.Max {
		t.Fatalf("mean outside [min,max]: %+v", rs.ThroughputMbps)
	}
	if rs.ThroughputMbps.CI95 < 0 {
		t.Fatalf("negative CI95: %+v", rs.ThroughputMbps)
	}
}

// TestSingleReplicationMatchesPlainRun pins backwards compatibility:
// Replications 0 and 1 are both plain single runs with no aggregates,
// byte-identical to each other.
func TestSingleReplicationMatchesPlainRun(t *testing.T) {
	sc, err := PaperScenario("I")
	if err != nil {
		t.Fatal(err)
	}
	sc.Cycles = 400
	sc.Seed = 9
	plain, err := AetherealTDM().Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	sc.Replications = 1
	one, err := AetherealTDM().Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	pj, _ := plain.JSON()
	oj, _ := one.JSON()
	if !bytes.Equal(pj, oj) {
		t.Fatal("Replications=1 changed the result")
	}
	if plain.Replication != nil {
		t.Fatal("single run grew replication aggregates")
	}
}

// TestPooledLatencyDeterministic pins the pooled-latency contract: a
// replicated run carries a pooled word-level latency distribution that
// is (a) internally consistent, (b) exactly the concatenation of the
// per-replication distributions, (c) byte-identical across repeated
// runs and across all four kernels, and (d) absent — along with any
// retained samples — from plain unreplicated runs.
func TestPooledLatencyDeterministic(t *testing.T) {
	sc := Scenario{
		Name: "pool", Pattern: "uniform", MeshWidth: 4, MeshHeight: 4,
		Cycles: 600, Seed: 11, Replications: 4,
		Injection: &Injection{Process: "bernoulli", Rate: 0.2},
	}
	run := func(k Kernel) *LatencyPool {
		res, err := AetherealTDM(WithKernel(k)).Run(sc)
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if res.Replication == nil || res.Replication.PooledLatency == nil {
			t.Fatalf("%v: no pooled latency: %+v", k, res.Replication)
		}
		return res.Replication.PooledLatency
	}

	ref := run(KernelActive)
	if ref.Words <= 0 {
		t.Fatalf("empty pool: %+v", ref)
	}
	// Internal consistency: histogram counts cover the population and
	// the order statistics are ordered.
	if len(ref.HistCounts) != len(ref.HistBounds)+1 {
		t.Fatalf("histogram shape: %d counts for %d bounds", len(ref.HistCounts), len(ref.HistBounds))
	}
	total := 0
	for _, c := range ref.HistCounts {
		total += c
	}
	if total != ref.Words {
		t.Fatalf("histogram counts sum to %d, pool has %d words", total, ref.Words)
	}
	if !(ref.MinCycles <= ref.P50Cycles && ref.P50Cycles <= ref.P95Cycles &&
		ref.P95Cycles <= ref.P99Cycles && ref.P99Cycles <= ref.MaxCycles) {
		t.Fatalf("order statistics out of order: %+v", ref)
	}

	// The pool is exactly the per-replication populations concatenated:
	// its word count is the sum of the individually-run replications'.
	want := 0
	for rep := 0; rep < sc.Replications; rep++ {
		r, err := AetherealTDM().Run(replicaScenario(sc, rep))
		if err != nil {
			t.Fatalf("replication %d: %v", rep, err)
		}
		if r.Latency != nil {
			want += r.Latency.Words
		}
	}
	if ref.Words != want {
		t.Fatalf("pooled %d words, replications measured %d", ref.Words, want)
	}

	// Determinism: a repeated run and every other kernel reproduce the
	// pool byte for byte.
	refJSON, err := json.Marshal(ref)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []Kernel{KernelActive, KernelNaive} {
		b, err := json.Marshal(run(k))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(refJSON, b) {
			t.Fatalf("pooled latency diverges under %v:\n ref %s\n got %s", k, refJSON, b)
		}
	}

	// A plain unreplicated run neither retains samples nor grows a pool.
	plain := sc
	plain.Replications = 0
	res, err := AetherealTDM().Run(plain)
	if err != nil {
		t.Fatal(err)
	}
	if res.Replication != nil {
		t.Fatal("plain run grew replication aggregates")
	}
	if res.Latency != nil && res.Latency.Samples != nil {
		t.Fatal("plain run retained latency samples")
	}
}

// TestScenarioReplicationValidation covers the new Scenario knobs.
func TestScenarioReplicationValidation(t *testing.T) {
	sc, err := PaperScenario("I")
	if err != nil {
		t.Fatal(err)
	}
	sc.Replications = -1
	if err := sc.withDefaults().Validate(); err == nil {
		t.Fatal("negative replications accepted")
	}
	spec := replicatedSpec(0)
	spec.Replications = -2
	if err := spec.Validate(); err == nil {
		t.Fatal("negative spec replications accepted")
	}
}

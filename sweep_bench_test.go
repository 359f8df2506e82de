package repro_test

// Benchmarks of the parallel sweep engine, the third leg of the
// benchdiff regression gate next to the kernel and pattern benchmarks:
// a small fixed spec run end to end through noc.Sweep's worker pool,
// once as single runs and once fanned out over replications. Both use
// one worker so the figure measures engine plus simulation cost, not
// the host's core count.

import (
	"context"
	"testing"

	"repro/noc"
)

// benchSweep runs the spec to completion, discarding cells.
func benchSweep(b *testing.B, spec noc.SweepSpec) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if err := noc.Sweep(context.Background(), spec, func(c noc.SweepCell) error {
			if c.Error != "" {
				b.Fatal(c.Error)
			}
			return nil
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// sweepBenchSpec is the gate's fixed workload: two scenarios on the
// circuit fabric, short runs, deterministic seed.
func sweepBenchSpec() noc.SweepSpec {
	return noc.SweepSpec{
		Fabrics: []noc.FabricSpec{{Kind: noc.KindCircuit}},
		Grid: &noc.Grid{
			Scenarios: []string{"I", "IV"},
			Cycles:    []int{500},
		},
		Workers: 1,
		Seed:    1,
	}
}

func BenchmarkSweepSingleRun(b *testing.B) {
	benchSweep(b, sweepBenchSpec())
}

func BenchmarkSweepReplicated(b *testing.B) {
	spec := sweepBenchSpec()
	spec.Replications = 4
	benchSweep(b, spec)
}

// overlapSpec is the content-addressed cache's headline workload: a
// circuit-fabric pattern grid of len(rates) injection rates × 2 run
// lengths. The warm benchmark primes the cache with the first 6 rates
// (12 of 16 cells, 75% overlap — the "re-run with a denser axis" case)
// and then measures the full grid; the cold benchmark runs the same
// grid uncached. Seeds vary per iteration so every warm iteration pays
// the true 75%-hit cost instead of degenerating to 100% hits.
func overlapSpec(rates []float64, seed uint64, dir string) noc.SweepSpec {
	return noc.SweepSpec{
		Fabrics: []noc.FabricSpec{{Kind: noc.KindCircuit}},
		Grid: &noc.Grid{
			Patterns:       []string{"uniform"},
			InjectionRates: rates,
			Cycles:         []int{1000, 2000},
		},
		Workers:  1,
		Seed:     seed,
		CacheDir: dir,
	}
}

// overlapRates is the full 8-value axis; the warm run's prime covers
// the first 6.
var overlapRates = []float64{0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07, 0.08}

// BenchmarkSweepOverlapCold is the uncached side of the ≥3× warm/cold
// acceptance comparison.
func BenchmarkSweepOverlapCold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchSweepOnce(b, overlapSpec(overlapRates, uint64(i+1), ""))
	}
}

// BenchmarkSweepOverlapWarm measures re-running the grid after 75% of
// its cells were already computed: only the 4 new-rate cells simulate,
// the rest are byte-exact cache hits.
func BenchmarkSweepOverlapWarm(b *testing.B) {
	dir := b.TempDir()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		benchSweepOnce(b, overlapSpec(overlapRates[:6], uint64(i+1), dir))
		b.StartTimer()
		benchSweepOnce(b, overlapSpec(overlapRates, uint64(i+1), dir))
	}
}

// benchSweepOnce runs one sweep to completion, failing on any cell
// error.
func benchSweepOnce(b *testing.B, spec noc.SweepSpec) {
	b.Helper()
	if err := noc.Sweep(context.Background(), spec, func(c noc.SweepCell) error {
		if c.Error != "" {
			b.Fatal(c.Error)
		}
		return nil
	}); err != nil {
		b.Fatal(err)
	}
}

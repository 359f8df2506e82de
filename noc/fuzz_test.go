package noc

import (
	"testing"

	"repro/internal/cellcache"
)

// fuzzPatternCase decodes fuzz bytes into a small pattern scenario and
// the fabric constructor to run it on. Byte layout, one field per byte
// unless noted: fabric, spatial pattern, mesh width, mesh height,
// injection process, rate, burstiness, cycles (two bytes), flags (bit 0:
// auto warm-up), replications, seed (two bytes). Missing bytes read as
// zero, so every input decodes to a valid scenario: a 2–5 × 2–5 mesh,
// any pattern and process, a rate in (0,1], a burstiness of 1–8 for the
// onoff process, 50–400 cycles and 1–2 replications.
func fuzzPatternCase(data []byte) (func(...Option) Fabric, Scenario) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	builds := []func(...Option) Fabric{CircuitSwitched, PacketSwitched, AetherealTDM}
	build := builds[next()%len(builds)]
	pats, procs := Patterns(), InjectionProcesses()
	sc := Scenario{Name: "fuzz", Pattern: pats[next()%len(pats)]}
	sc.MeshWidth = 2 + next()%4
	sc.MeshHeight = 2 + next()%4
	sc.Injection = &Injection{
		Process: procs[next()%len(procs)],
		Rate:    float64(1+next()%100) / 100,
	}
	if burst := float64(1 + next()%8); sc.Injection.Process == "onoff" {
		sc.Injection.Burstiness = burst
	}
	sc.Cycles = 50 + (next()<<8|next())%351
	sc.WarmupAuto = next()&1 == 1
	sc.Replications = 1 + next()%2
	sc.Seed = uint64(next()<<8 | next())
	return build, sc
}

// FuzzCacheEquivalence checks the result cache against the determinism
// contract on generated pattern scenarios: an uncached run, a cache
// miss, a cache hit and a naive-kernel run must give identical Result
// JSON, and on a fresh cache the miss run misses, and the hit run hits,
// once per replication.
func FuzzCacheEquivalence(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		build, sc := fuzzPatternCase(data)
		reps := uint64(sc.Replications)
		run := func(fab Fabric) string {
			res, err := fab.Run(sc)
			if err != nil {
				t.Fatalf("%s %+v: %v", fab.Kind(), sc, err)
			}
			b, err := res.JSON()
			if err != nil {
				t.Fatalf("%s %+v: encode: %v", fab.Kind(), sc, err)
			}
			return string(b)
		}
		cached := func(c *Cache) Fabric {
			fab := build()
			fab.(cacheSettable).setCache(c)
			return fab
		}
		plain := run(build())

		c := &Cache{store: cellcache.New(16)}
		miss := run(cached(c))
		afterMiss := c.Counters()
		hit := run(cached(c))
		afterHit := c.Counters()
		naive := run(build(WithKernel(KernelNaive)))

		for _, v := range []struct{ name, out string }{
			{"cache miss", miss}, {"cache hit", hit}, {"naive kernel", naive},
		} {
			if v.out != plain {
				t.Fatalf("%+v: %s differs from the uncached run\nuncached: %s\n%s: %s",
					sc, v.name, plain, v.name, v.out)
			}
		}
		if afterMiss.Misses != reps || afterMiss.Hits != 0 {
			t.Fatalf("%+v: miss run counters %+v, want %d misses and no hits", sc, afterMiss, reps)
		}
		if hits := afterHit.Hits - afterMiss.Hits; hits != reps || afterHit.Misses != afterMiss.Misses {
			t.Fatalf("%+v: hit run counters %+v after %+v, want %d hits and no misses",
				sc, afterHit, afterMiss, reps)
		}
	})
}

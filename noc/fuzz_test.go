package noc

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"strings"
	"testing"

	"repro/internal/cellcache"
)

// fuzzPatternCase decodes fuzz bytes into a small pattern scenario and
// the fabric constructor to run it on. Byte layout, one field per byte
// unless noted: fabric, spatial pattern, mesh width, mesh height,
// injection process, rate, burstiness, cycles (two bytes), flags (bit 0:
// auto warm-up), replications, seed (two bytes), mesh growth (bits 0–1
// widen, bits 2–3 heighten the mesh by 0–3), explicit warm-up (that many
// 256ths of the run, ignored under auto warm-up). Missing bytes read as
// zero, so every input decodes to a valid scenario — a 2–8 × 2–8 mesh,
// any pattern and process, a rate in (0,1], a burstiness of 1–8 for the
// onoff process, 50–400 cycles, 1–2 replications and a warm-up shorter
// than the run — and inputs written before a field was appended decode
// as they always did.
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
	grow := next()
	sc.MeshWidth += grow & 3
	sc.MeshHeight += grow >> 2 & 3
	if warm := next(); !sc.WarmupAuto {
		sc.WarmupCycles = sc.Cycles * warm / 256
	}
	return build, sc
}

// FuzzCacheEquivalence checks the result cache against the determinism
// contract on generated pattern scenarios: an uncached run, a cache
// miss, a cache hit, a naive-kernel run and a run with tracing and
// metrics on must give identical Result JSON, and on a fresh cache the
// miss run misses, and the hit run hits, once per replication. A
// four-job sweep of the scenario — it and a reseeded copy, each
// replicated twice — must print the same SweepJSON bytes with 1 and 4
// workers.
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
			fab.(*fabric).cache = c
			return fab
		}
		plain := run(build())

		store, err := cellcache.NewDir(t.TempDir(), 0)
		if err != nil {
			t.Fatal(err)
		}
		c := &Cache{store: store}
		miss := run(cached(c))
		afterMiss := c.Counters()
		hit := run(cached(c))
		afterHit := c.Counters()
		naive := run(build(WithKernel(KernelNaive)))
		observed := run(build(WithTrace(io.Discard), WithMetrics(true)))

		for _, v := range []struct{ name, out string }{
			{"cache miss", miss}, {"cache hit", hit}, {"naive kernel", naive},
			{"traced run", observed},
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

		a, b := sc, sc
		a.Replications, b.Replications = 2, 2
		b.Name, b.Seed = "fuzz-reseeded", sc.Seed+1
		sweepOut := func(workers int) string {
			spec := SweepSpec{Fabrics: []FabricSpec{{Kind: build().Kind()}},
				Scenarios: []Scenario{a, b}, Workers: workers}
			var out bytes.Buffer
			if err := SweepJSON(context.Background(), spec, &out); err != nil {
				t.Fatalf("%+v: sweep with %d workers: %v", sc, workers, err)
			}
			return out.String()
		}
		if w1, w4 := sweepOut(1), sweepOut(4); w1 != w4 {
			t.Fatalf("%+v: sweep output differs across worker counts\n1 worker: %s\n4 workers: %s", sc, w1, w4)
		}
	})
}

// FuzzParseSweepSpec checks the sweep-spec parser on arbitrary bytes: it
// never panics, every error it returns starts with "noc:", a spec it
// accepts has only whitespace after its first JSON value, and it
// re-marshals to a spec that parses to identical Cells (compared as
// JSON). The seeds are the CI sweep specs plus specs using the removed
// lane_width knob and kernel names and specs followed by garbage or by a
// second spec, which must fail.
func FuzzParseSweepSpec(f *testing.F) {
	knobs := `"fabrics":[{"kind":"circuit","lanes":3,"gated":true},{"kind":"packet","vcs":3,"buffer_depth":2},{"kind":"aethereal","slots":8,"be_depth":4}]`
	for _, spec := range []string{
		`{"grid":{"scenarios":["III","IV"],"loads":[0.5,1],"cycles":[500]},"seed":1}`,
		`{"grid":{"patterns":["uniform","hotspot"],"mesh_sizes":[4],"injection_rates":[0.03,0.06],"cycles":[800]},"seed":5}`,
		`{"fabrics":[{"kind":"circuit"}],"scenarios":[{"name":"finite","streams":[{"id":1,"in":"tile","out":"east"},{"id":2,"in":"north","out":"tile"}],"cycles":20000,"words_per_stream":100}],"seed":7}`,
		`{"grid":{"patterns":["hotspot","uniform"],"mesh_sizes":[4],"injection_rates":[0.05],"cycles":[1000]},"seed":11}`,
		`{"grid":{"patterns":["hotspot"],"mesh_sizes":[4],"burstiness":[8],"cycles":[1000]},"seed":11}`,
		`{` + knobs + `,"grid":{"scenarios":["III","IV"],"cycles":[500]},"seed":1}`,
		`{` + knobs + `,"grid":{"patterns":["uniform","hotspot"],"mesh_sizes":[4],"cycles":[1000]},"seed":3}`,
		`{"fabrics":[{"kind":"circuit","lane_width":4}]}`,
		`{"kernel":"gated"}`,
		`{"fabrics":[{"kind":"circuit","kernel":"event"}]}`,
		`{"grid":{"scenarios":["I"],"cycles":[100]},"seed":1} trailing garbage {`,
		`{"grid":{"scenarios":["I"],"cycles":[100]},"seed":1}{"seed":2}`,
	} {
		f.Add([]byte(spec))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		// An accepted spec is expanded four times below; skip grids of
		// more than a few thousand cells within the bound, so the
		// target's memory stays small. Larger grids differ only in axis
		// lengths.
		var probe SweepSpec
		if json.NewDecoder(bytes.NewReader(b)).Decode(&probe) == nil && probe.Grid != nil {
			g := probe.Grid
			bases := max(len(g.Scenarios)+len(g.Workloads)+len(g.Patterns), len(PaperScenarios()))
			cells := g.size() * float64(bases*max(len(probe.Fabrics), len(defaultFabrics())))
			if cells > 1<<12 && cells <= maxSweepJobs {
				t.Skip("accepted spec too large to expand repeatedly")
			}
		}
		spec, err := ParseSweepSpec(b)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "noc:") {
				t.Fatalf("error %q does not start with noc:", err)
			}
			return
		}
		var first json.RawMessage
		dec := json.NewDecoder(bytes.NewReader(b))
		if err := dec.Decode(&first); err != nil {
			t.Fatalf("accepted spec is not a JSON value: %v", err)
		}
		if rest := b[dec.InputOffset():]; len(bytes.Trim(rest, " \t\r\n")) != 0 {
			t.Fatalf("accepted spec has %q after its first JSON value", rest)
		}
		cells, err := spec.Cells()
		if err != nil {
			t.Fatalf("accepted spec fails Cells: %v", err)
		}
		out, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("re-marshal: %v", err)
		}
		again, err := ParseSweepSpec(out)
		if err != nil {
			t.Fatalf("re-marshalled spec %s rejected: %v", out, err)
		}
		// Cells compare as JSON: an empty list re-marshals as an absent
		// field and decodes as nil, the same cell.
		cells2, err := again.Cells()
		if err != nil {
			t.Fatalf("re-marshalled spec %s: %v", out, err)
		}
		want, _ := json.Marshal(cells)
		if got, _ := json.Marshal(cells2); !bytes.Equal(got, want) {
			t.Fatalf("re-marshalled spec %s: cells\n%s\nwant\n%s", out, got, want)
		}
	})
}

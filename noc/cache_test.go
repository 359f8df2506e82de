package noc

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"sync"
	"testing"
)

// withTestFingerprint pins the code-version fingerprint for the test's
// duration so golden keys do not depend on the build.
func withTestFingerprint(t *testing.T, fp string) {
	t.Helper()
	old := fingerprintOverride
	fingerprintOverride = fp
	t.Cleanup(func() { fingerprintOverride = old })
}

// cacheTestScenario is the representative cell: a defaulted paper
// scenario with an explicit seed, exactly what a sweep hands a fabric.
func cacheTestScenario(t *testing.T) Scenario {
	t.Helper()
	sc, err := PaperScenario("I")
	if err != nil {
		t.Fatal(err)
	}
	sc.Seed = 42
	return sc.withDefaults()
}

// TestCacheKeyGolden pins the content addresses of representative cells.
// A change here means every existing cache is invalidated — deliberate
// when the key material changes, an accident otherwise. Update the
// goldens (and bump cacheKeySchema when the material layout changed)
// only with that in mind.
func TestCacheKeyGolden(t *testing.T) {
	withTestFingerprint(t, "test-fingerprint-1")
	sc := cacheTestScenario(t)
	pat := Scenario{Name: "pat", Pattern: "uniform", Seed: 7}.withDefaults()

	golden := []struct {
		name string
		key  string
	}{
		{"circuit-I", cellKey(*newFabric(KindCircuit, nil), sc).String()},
		{"packet-I", cellKey(*newFabric(KindPacket, nil), sc).String()},
		{"tdm-I", cellKey(*newFabric(KindTDM, nil), sc).String()},
		{"circuit-pattern", cellKey(*newFabric(KindCircuit, nil), pat).String()},
	}
	want := map[string]string{
		"circuit-I":       "eb242492c80d5eb5124bcce3df94baf5e686a14495d2d0b6975de25fa55c0c8b",
		"packet-I":        "ca428bb7f82200b5e3792003dcd49318f62921b10c0826ffbc6ae0cc6086c442",
		"tdm-I":           "84a90757078d463d885b703252c7e412a95880af9f648a6f49cedc8f12c61cbf",
		"circuit-pattern": "c327faf58ab5143a6d18d73907cf448935f149f4275f10e98cbdead307cb3f52",
	}
	for _, g := range golden {
		if g.key != want[g.name] {
			t.Errorf("%s: key %s, want %s", g.name, g.key, want[g.name])
		}
	}
}

// TestCacheKeySensitivity: every result-relevant input — scenario
// fields, seed, fabric knobs, kind, fingerprint — must change the key;
// the kernel and worker count must not (results are byte-identical
// across them, so a result computed under one serves the others).
func TestCacheKeySensitivity(t *testing.T) {
	withTestFingerprint(t, "test-fingerprint-1")
	base := cacheTestScenario(t)
	baseKey := cellKey(*newFabric(KindCircuit, nil), base)

	mutations := []struct {
		name string
		mut  func(*Scenario)
	}{
		{"seed", func(sc *Scenario) { sc.Seed++ }},
		{"cycles", func(sc *Scenario) { sc.Cycles++ }},
		{"freq", func(sc *Scenario) { sc.FreqMHz += 1 }},
		{"load", func(sc *Scenario) { sc.Data.Load += 0.01 }},
		{"flip", func(sc *Scenario) { sc.Data.FlipProb += 0.01 }},
		{"name", func(sc *Scenario) { sc.Name += "x" }},
		{"words", func(sc *Scenario) { sc.WordsPerStream += 5 }},
		{"warmup", func(sc *Scenario) { sc.WarmupCycles = 100 }},
		{"warmup-auto", func(sc *Scenario) { sc.WarmupAuto = true }},
		{"pool-latency", func(sc *Scenario) { sc.poolLatency = true }},
	}
	seen := map[string]string{baseKey.String(): "base"}
	for _, m := range mutations {
		sc := base
		m.mut(&sc)
		k := cellKey(*newFabric(KindCircuit, nil), sc).String()
		if prev, dup := seen[k]; dup {
			t.Errorf("mutation %q collides with %q", m.name, prev)
		}
		seen[k] = m.name
	}

	// Each knob is applied to the kind that reads it.
	for _, kind := range []Kind{KindPacket, KindTDM} {
		seen[cellKey(*newFabric(kind, nil), base).String()] = "base:" + string(kind)
	}
	cfgMutations := []struct {
		name string
		kind Kind
		opts []Option
	}{
		{"lanes", KindCircuit, []Option{WithLanes(2)}},
		{"gating", KindCircuit, []Option{WithClockGating(true)}},
		{"corner", KindCircuit, []Option{WithLibraryCorner("hvt")}},
		{"latency-words", KindCircuit, []Option{WithLatencyWords(10)}},
		{"node-trace", KindCircuit, []Option{WithNodeTrace(10)}},
		{"vcs", KindPacket, []Option{WithVirtualChannels(2)}},
		{"buffer-depth", KindPacket, []Option{WithBufferDepth(4)}},
		{"packet-corner", KindPacket, []Option{WithLibraryCorner("hvt")}},
		{"packet-latency-words", KindPacket, []Option{WithLatencyWords(10)}},
		{"slots", KindTDM, []Option{WithSlots(16)}},
		{"be-depth", KindTDM, []Option{WithBEDepth(8)}},
		{"tdm-corner", KindTDM, []Option{WithLibraryCorner("hvt")}},
	}
	for _, m := range cfgMutations {
		k := cellKey(*newFabric(m.kind, m.opts), base).String()
		if prev, dup := seen[k]; dup {
			t.Errorf("config mutation %q collides with %q", m.name, prev)
		}
		seen[k] = "cfg:" + m.name
	}

	if k := cellKey(*newFabric(KindPacket, nil), base); k == baseKey {
		t.Error("fabric kind does not change the key")
	}
	withTestFingerprint(t, "test-fingerprint-2")
	if k := cellKey(*newFabric(KindCircuit, nil), base); k == baseKey {
		t.Error("code fingerprint does not change the key")
	}
	withTestFingerprint(t, "test-fingerprint-1")

	// Deliberate exclusion: the kernel.
	if k := cellKey(*newFabric(KindCircuit, []Option{WithKernel(KernelNaive)}), base); k != baseKey {
		t.Error("kernel choice changes the key; cross-kernel byte-identity makes it shareable")
	}
}

// TestCacheKeyIgnoresOtherKindsKnobs: a fabric's key holds only the
// knobs its kind reads, so options meant for the other kinds — and the
// latency sample count on the TDM fabric, which measures latency in-run
// — leave the key unchanged, and the second of two such runs is served
// from the cache with the first run's bytes.
func TestCacheKeyIgnoresOtherKindsKnobs(t *testing.T) {
	withTestFingerprint(t, "test-fingerprint-kinds")
	circuitOpts := []Option{WithLanes(3), WithClockGating(true), WithNodeTrace(10)}
	packetOpts := []Option{WithVirtualChannels(3), WithBufferDepth(2)}
	tdmOpts := []Option{WithSlots(8), WithBEDepth(4)}
	cat := func(opts ...[]Option) []Option {
		var all []Option
		for _, o := range opts {
			all = append(all, o...)
		}
		return all
	}
	sc := cacheTestScenario(t)
	sc.Cycles = 400
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		kind  Kind
		build func(...Option) Fabric
		other []Option
	}{
		{KindCircuit, CircuitSwitched, cat(packetOpts, tdmOpts)},
		{KindPacket, PacketSwitched, cat(circuitOpts, tdmOpts)},
		{KindTDM, AetherealTDM, cat(circuitOpts, packetOpts, []Option{WithLatencyWords(0)})},
	} {
		if got, want := cellKey(*newFabric(c.kind, c.other), sc), cellKey(*newFabric(c.kind, nil), sc); got != want {
			t.Errorf("%s: the other kinds' knobs change the key", c.kind)
		}
		plain, other := c.build(), c.build(c.other...)
		plain.(*fabric).cache, other.(*fabric).cache = cache, cache
		first := runJSON(t, plain, sc)
		before := cache.Counters()
		second := runJSON(t, other, sc)
		if got := countersSince(cache, before); got != (CacheCounters{Hits: 1}) {
			t.Errorf("%s: second run counters %+v, want one hit", c.kind, got)
		}
		if !bytes.Equal(first, second) {
			t.Errorf("%s: the cached run's JSON differs from the first run's", c.kind)
		}
	}
}

// TestResultEnvelopeRoundTrip: the stored form reproduces the wire
// bytes exactly and reattaches the off-wire latency samples.
func TestResultEnvelopeRoundTrip(t *testing.T) {
	f := CircuitSwitched()
	sc := cacheTestScenario(t)
	sc.poolLatency = true
	res, err := f.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := encodeResultEnvelope(res)
	if err != nil {
		t.Fatal(err)
	}
	back, err := decodeResultEnvelope(enc)
	if err != nil {
		t.Fatal(err)
	}
	j1, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	j2, err := back.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1, j2) {
		t.Fatal("decoded result's JSON differs from the original")
	}
	if res.Latency != nil {
		if got, want := len(back.Latency.Samples), len(res.Latency.Samples); got != want {
			t.Fatalf("reattached %d samples, want %d", got, want)
		}
	}
}

// countersSince returns the cache's traffic since the before snapshot.
func countersSince(c *Cache, before CacheCounters) CacheCounters {
	now := c.Counters()
	return CacheCounters{Hits: now.Hits - before.Hits, Misses: now.Misses - before.Misses,
		Puts: now.Puts - before.Puts}
}

// TestFabricRunServedFromCache: the façade-level cache serves a repeat
// run byte-identically. The first run is one miss and one store, the
// repeat one hit, as both the cache counters and each run's metrics
// snapshot report.
func TestFabricRunServedFromCache(t *testing.T) {
	withTestFingerprint(t, "test-fingerprint-run")
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sc := cacheTestScenario(t)
	for _, build := range []func(...Option) Fabric{CircuitSwitched, PacketSwitched, AetherealTDM} {
		f := build(WithMetrics(true))
		f.(*fabric).cache = cache
		before := cache.Counters()
		first, err := f.Run(sc)
		if err != nil {
			t.Fatalf("%s: %v", f.Kind(), err)
		}
		if got := countersSince(cache, before); got != (CacheCounters{Misses: 1, Puts: 1}) {
			t.Fatalf("%s: first run counters %+v, want one miss and one put", f.Kind(), got)
		}
		if v, _ := metricValue(first, "cache.misses"); v != 1 {
			t.Fatalf("%s: first run cache.misses = %d, want 1", f.Kind(), v)
		}
		mid := cache.Counters()
		second, err := f.Run(sc)
		if err != nil {
			t.Fatalf("%s: %v", f.Kind(), err)
		}
		if got := countersSince(cache, mid); got != (CacheCounters{Hits: 1}) {
			t.Fatalf("%s: second run counters %+v, want one hit", f.Kind(), got)
		}
		if v, _ := metricValue(second, "cache.hits"); v != 1 {
			t.Fatalf("%s: second run cache.hits = %d, want 1", f.Kind(), v)
		}
		j1, _ := first.JSON()
		j2, _ := second.JSON()
		if !bytes.Equal(j1, j2) {
			t.Fatalf("%s: cached result differs from fresh run", f.Kind())
		}
	}
}

// TestWithCacheServesRepeatRun: WithCache(dir), the option README
// documents, stores the first run of scenario IV in dir and serves the
// repeat from it byte-identically, as the runs' metrics report.
func TestWithCacheServesRepeatRun(t *testing.T) {
	sc, err := PaperScenario("IV")
	if err != nil {
		t.Fatal(err)
	}
	f := CircuitSwitched(WithCache(t.TempDir()), WithMetrics(true))
	first, err := f.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	second, err := f.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		res          *Result
		name         string
		hits, misses int64
	}{{first, "first", 0, 1}, {second, "second", 1, 0}} {
		hits, _ := metricValue(c.res, "cache.hits")
		misses, _ := metricValue(c.res, "cache.misses")
		if hits != c.hits || misses != c.misses {
			t.Errorf("%s run: cache.hits %d, cache.misses %d, want %d and %d",
				c.name, hits, misses, c.hits, c.misses)
		}
	}
	j1, _ := first.JSON()
	j2, _ := second.JSON()
	if !bytes.Equal(j1, j2) {
		t.Fatalf("cached result differs from the fresh run:\n%s\n%s", j1, j2)
	}
}

// cacheSweepSpec is the sweep used by the cold/warm byte-compare: a
// pattern grid over all three fabrics.
func cacheSweepSpec(workers int, dir string) SweepSpec {
	return SweepSpec{
		Fabrics: []FabricSpec{{Kind: KindCircuit}, {Kind: KindPacket}, {Kind: KindTDM}},
		Grid: &Grid{
			Patterns: []string{"uniform"},
			Loads:    []float64{0.2, 0.5},
			Cycles:   []int{800},
		},
		Seed:     99,
		Workers:  workers,
		CacheDir: dir,
	}
}

// TestSweepCacheColdWarmByteCompare is the tentpole acceptance test:
// sweep output must be byte-identical across cache-off, cache-cold and
// cache-warm runs, at worker counts 1 and 8, and the warm run must
// actually hit.
func TestSweepCacheColdWarmByteCompare(t *testing.T) {
	withTestFingerprint(t, "test-fingerprint-sweep")
	dir := t.TempDir()
	ctx := context.Background()

	baseline := cacheSweepSpec(1, dir)
	baseline.CacheDir = ""
	var off bytes.Buffer
	if err := SweepJSON(ctx, baseline, &off); err != nil {
		t.Fatal(err)
	}

	var cold bytes.Buffer
	if err := SweepJSON(ctx, cacheSweepSpec(1, dir), &cold); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(off.Bytes(), cold.Bytes()) {
		t.Fatal("cold cached sweep differs from cache-disabled sweep")
	}

	cache, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	before := cache.Counters()
	if before.Puts == 0 {
		t.Fatal("cold sweep stored nothing")
	}

	for _, workers := range []int{1, 8} {
		var warm bytes.Buffer
		if err := SweepJSON(ctx, cacheSweepSpec(workers, dir), &warm); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(off.Bytes(), warm.Bytes()) {
			t.Fatalf("warm sweep (workers=%d) differs from cache-disabled sweep", workers)
		}
	}
	after := cache.Counters()
	if after.Hits <= before.Hits {
		t.Fatalf("warm sweeps did not hit (hits %d -> %d)", before.Hits, after.Hits)
	}
	if after.Puts != before.Puts {
		t.Fatalf("warm sweeps stored new entries (puts %d -> %d)", before.Puts, after.Puts)
	}
}

// TestSweepCacheReplications: a replicated sweep caches each
// replication individually, so raising the count only computes the new
// tail — and output stays byte-identical to an uncached run.
func TestSweepCacheReplications(t *testing.T) {
	withTestFingerprint(t, "test-fingerprint-reps")
	dir := t.TempDir()
	ctx := context.Background()

	spec := cacheSweepSpec(2, dir)
	spec.Replications = 2
	spec.Grid = &Grid{Patterns: []string{"uniform"}, Cycles: []int{600}}
	if err := SweepJSON(ctx, spec, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	cache, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	before := cache.Counters()

	spec.Replications = 3
	var warm, off bytes.Buffer
	if err := SweepJSON(ctx, spec, &warm); err != nil {
		t.Fatal(err)
	}
	after := cache.Counters()
	if after.Hits <= before.Hits {
		t.Fatal("replication extension did not reuse cached replications")
	}

	plain := spec
	plain.CacheDir = ""
	if err := SweepJSON(ctx, plain, &off); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(off.Bytes(), warm.Bytes()) {
		t.Fatal("replicated cached sweep differs from cache-disabled sweep")
	}
}

// TestSweepCacheHitPatterns: sweep output is byte-identical to an
// uncached sweep for any mix of cached and uncached jobs at any worker
// count, and only the misses are simulated and stored. Before each
// sweep, every hitMod-th cell is primed through its own fabric (hitMod
// 0: none, 1: all), so hits and slower misses interleave in the pool.
func TestSweepCacheHitPatterns(t *testing.T) {
	withTestFingerprint(t, "test-fingerprint-hits")
	ctx := context.Background()
	base := SweepSpec{
		Fabrics: []FabricSpec{{Kind: KindCircuit}, {Kind: KindPacket}},
		Grid:    &Grid{Scenarios: []string{"I", "III"}, Loads: []float64{0.5, 1}, Cycles: []int{300}},
		Seed:    3,
	}
	var off bytes.Buffer
	if err := SweepJSON(ctx, base, &off); err != nil {
		t.Fatal(err)
	}
	cells, err := base.Cells()
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8} {
		for _, hitMod := range []int{0, 1, 2, 3} {
			t.Run(fmt.Sprintf("workers=%d hitMod=%d", workers, hitMod), func(t *testing.T) {
				dir := t.TempDir()
				cache, err := OpenCache(dir)
				if err != nil {
					t.Fatal(err)
				}
				primed := 0
				for i, c := range cells {
					if hitMod == 0 || i%hitMod != 0 {
						continue
					}
					f, err := c.Fabric.Fabric()
					if err != nil {
						t.Fatal(err)
					}
					f.(*fabric).cache = cache
					if _, err := f.Run(c.Scenario); err != nil {
						t.Fatal(err)
					}
					primed++
				}
				before := cache.Counters()
				spec := base
				spec.Workers, spec.CacheDir = workers, dir
				var got bytes.Buffer
				if err := SweepJSON(ctx, spec, &got); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(off.Bytes(), got.Bytes()) {
					t.Fatal("partly cached sweep differs from the uncached sweep")
				}
				misses := uint64(len(cells) - primed)
				want := CacheCounters{Hits: uint64(primed), Misses: misses, Puts: misses}
				if got := countersSince(cache, before); got != want {
					t.Errorf("sweep counters %+v, want %+v (hits = primed cells)", got, want)
				}
			})
		}
	}
}

// startCounter is a SweepMonitor counting JobStart calls per job.
type startCounter struct {
	mu     sync.Mutex
	starts map[int]int
}

func (m *startCounter) JobStart(_, job int) {
	m.mu.Lock()
	m.starts[job]++
	m.mu.Unlock()
}

func (m *startCounter) JobDone(_, _ int) {}

// TestSweepWarmReplayHitsEveryJob: every sweep job runs on the worker
// pool and consults the cache once, hit or miss. The cold pass misses
// and stores each job once; a warm replay at 1 and 4 workers serves
// every job from the cache (CacheHits == JobsTotal) while the monitor
// still sees one JobStart per job.
func TestSweepWarmReplayHitsEveryJob(t *testing.T) {
	withTestFingerprint(t, "test-fingerprint-replay")
	dir := t.TempDir()
	ctx := context.Background()
	spec := cacheSweepSpec(2, dir)
	spec.Replications = 2
	var last SweepProgress
	spec.Obs.Progress = func(p SweepProgress) error { last = p; return nil }
	if err := SweepJSON(ctx, spec, io.Discard); err != nil {
		t.Fatal(err)
	}
	jobs := last.JobsTotal
	if jobs <= last.CellsTotal {
		t.Fatalf("%d jobs for %d cells: replications did not fan out", jobs, last.CellsTotal)
	}
	cache, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := cache.Counters(), (CacheCounters{Misses: uint64(jobs), Puts: uint64(jobs)}); got != want {
		t.Fatalf("cold pass counters %+v, want %+v (one lookup per job)", got, want)
	}
	if last.CacheHits != 0 {
		t.Fatalf("cold pass reported %d cache hits", last.CacheHits)
	}
	for _, workers := range []int{1, 4} {
		spec.Workers = workers
		mon := &startCounter{starts: map[int]int{}}
		spec.Obs.Monitor = mon
		if err := SweepJSON(ctx, spec, io.Discard); err != nil {
			t.Fatal(err)
		}
		if last.JobsDone != jobs || last.CacheHits != jobs {
			t.Errorf("workers=%d: warm replay finished %d jobs with %d cache hits, want %d each",
				workers, last.JobsDone, last.CacheHits, jobs)
		}
		if len(mon.starts) != jobs {
			t.Errorf("workers=%d: monitor saw %d of %d jobs start", workers, len(mon.starts), jobs)
		}
		for job, n := range mon.starts {
			if n != 1 {
				t.Errorf("workers=%d: job %d started %d times", workers, job, n)
			}
		}
	}
}

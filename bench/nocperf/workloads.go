package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/aethereal"
	"repro/internal/cellcache"
	"repro/internal/mesh"
	"repro/internal/pattern"
	"repro/internal/sim"
	"repro/internal/stdcell"
	"repro/internal/traffic"
	"repro/noc"
)

// Workload inputs. Every simulation runs with the default kernel and
// fabric options, which is what users run.
const (
	hotPattern    = "hotspot:1"
	hotInjection  = "bernoulli:0.05"
	densePattern  = "uniform"
	denseInject   = "poisson:0.3"
	sweepReps     = 2
	fig9RatioLow  = 2.6
	fig9RatioHigh = 4.4
)

// sweepWorkers is the sweep pool's size. One worker keeps every measured
// process single-threaded, like the reference twin: on a host of two
// shared CPUs a second worker and the collector contend for them, and
// the pass time follows the other tenants more than the program.
const sweepWorkers = 1

// sizes are the workload dimensions; -quick shrinks them so a test can
// run every workload in a few seconds.
type sizes struct {
	experiments                         []string
	hotMesh, hotCycles                  int
	denseMesh, denseCycles, naiveCycles int
	sweepPatterns                       []string
	sweepRates, extendRates             []float64
	sweepCycles                         int
	calibrationIters                    int
}

func sizesFor(quick bool) sizes {
	if quick {
		return sizes{
			experiments: []string{"table1", "fig9"},
			hotMesh:     8, hotCycles: 500,
			denseMesh: 4, denseCycles: 200, naiveCycles: 100,
			sweepPatterns: []string{"uniform"},
			sweepRates:    []float64{0.1}, extendRates: []float64{0.1, 0.2},
			sweepCycles: 200, calibrationIters: 20000,
		}
	}
	return sizes{
		experiments: experimentIDs,
		hotMesh:     32, hotCycles: 10000,
		denseMesh: 16, denseCycles: 2000, naiveCycles: 500,
		sweepPatterns: []string{"uniform", "transpose", "hotspot:0.5"},
		sweepRates:    []float64{0.02, 0.1, 0.3},
		extendRates:   []float64{0.02, 0.1, 0.3, 0.05, 0.2},
		sweepCycles:   400,
		// The reference twin's size fixes calibrationRefS.
		calibrationIters: 1200000,
	}
}

// task is what a child process is asked to do.
type task struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	// Kind is "pass" (one timed pass, or one phase of a sweep-cache
	// pass), "setup" (the inputs at one simulated cycle), "naive" (the
	// oracle-kernel comparison) or "calibrate" (the reference twin).
	Kind  string `json:"kind"`
	Phase string `json:"phase,omitempty"` // sweep-cache phase, one of sweepPhases
	Trace bool   `json:"trace,omitempty"`
	Dir   string `json:"dir,omitempty"` // cache directory of a sweep phase
	Quick bool   `json:"quick,omitempty"`
}

// childResult is what a child reports on its last line of output.
type childResult struct {
	Digest  string             `json:"digest,omitempty"` // SHA-256 of the program's output bytes
	WorkS   float64            `json:"work_s"`           // time of the calls into the program
	AllocMB float64            `json:"alloc_mb"`
	GCs     uint32             `json:"gcs"`
	Checks  int                `json:"checks"`           // correctness checks made in the child
	Failed  []string           `json:"failed,omitempty"` // failed checks and errors
	Spans   []span             `json:"spans,omitempty"`
	Layer   map[string]float64 `json:"layer,omitempty"`
}

// pass is the state of one child task.
type pass struct {
	task
	sz    sizes
	tr    *tracer            // nil unless traced
	layer map[string]float64 // per-layer values; nil unless traced
	res   *childResult
	after []func() // checks and layer rebuilds, run after the timed work
}

// call runs fn inside a span and adds its duration to a per-layer metric
// on a traced pass.
func (p *pass) call(metric, name string, fn func() error, args ...string) error {
	end := p.tr.begin(name, args...)
	err := fn()
	if d := end(); p.layer != nil && metric != "" {
		p.layer[metric] += d
	}
	return err
}

// check records one correctness check.
func (p *pass) check(ok bool, format string, args ...any) {
	p.res.Checks++
	if !ok {
		p.res.Failed = append(p.res.Failed, fmt.Sprintf(format, args...))
	}
}

// runTask executes one child task and reports its result.
func runTask(t task) *childResult {
	p := &pass{task: t, sz: sizesFor(t.Quick), res: &childResult{}}
	if t.Trace {
		p.tr = newTracer()
		p.layer = map[string]float64{}
	}
	var fn func(*pass) ([]byte, error)
	switch t.Kind {
	case "pass":
		fn = passFuncs[t.Workload]
	case "setup":
		fn = setupFuncs[t.Workload]
	case "naive":
		fn = denseNaiveCheck
	case "calibrate":
		fn = calibrate
	}
	if fn == nil {
		p.res.Failed = append(p.res.Failed, fmt.Sprintf("no %s task for workload %q", t.Kind, t.Workload))
		return p.res
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	end := p.tr.begin("bench.pass", "workload", t.Workload, "kind", t.Kind)
	start := time.Now()
	out, err := fn(p)
	p.res.WorkS = time.Since(start).Seconds()
	end()
	runtime.ReadMemStats(&after)
	p.res.AllocMB = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	p.res.GCs = after.NumGC - before.NumGC
	if err != nil {
		p.res.Failed = append(p.res.Failed, err.Error())
		return p.res
	}
	sum := sha256.Sum256(out)
	p.res.Digest = hex.EncodeToString(sum[:])
	for _, f := range p.after {
		f()
	}
	if p.tr != nil {
		p.res.Spans = p.tr.spans
		p.res.Layer = p.layer
	}
	return p.res
}

var passFuncs = map[string]func(*pass) ([]byte, error){
	"paper-eval":    paperEvalPass,
	"hotspot32":     hotspotPass,
	"uniform-dense": densePass,
	"sweep-cache":   sweepPhasePass,
}

var setupFuncs = map[string]func(*pass) ([]byte, error){
	"paper-eval":    paperEvalSetup,
	"hotspot32":     func(p *pass) ([]byte, error) { return hotspotRun(p, 1) },
	"uniform-dense": func(p *pass) ([]byte, error) { return denseRun(p, 1) },
	"sweep-cache":   func(p *pass) ([]byte, error) { return sweepRun(p, p.sz.sweepRates, 1) },
}

// paperEvalPass measures and renders every experiment in turn, as
// nocbench does with no flags. (Its -json form cannot run them all: the
// beload data holds an infinite value JSON cannot encode.)
func paperEvalPass(p *pass) ([]byte, error) {
	var out bytes.Buffer
	for _, id := range p.sz.experiments {
		start := out.Len()
		err := p.call("experiments."+id+"_s", "noc.RunExperiment", func() error {
			return noc.RunExperiment(&out, id)
		}, "id", id)
		if err != nil {
			return nil, fmt.Errorf("experiment %s: %w", id, err)
		}
		if id == "fig9" {
			text := append([]byte(nil), out.Bytes()[start:]...)
			p.after = append(p.after, func() { checkFig9(p, text) })
		}
	}
	return out.Bytes(), nil
}

// fig9Ratio finds the scenario-averaged packet/circuit power ratio in
// the rendered Figure 9.
var fig9Ratio = regexp.MustCompile(`ratio ([0-9.]+)x`)

// checkFig9 holds the paper's central shape: the packet-switched router
// draws about 3.5 times the circuit-switched router's power.
func checkFig9(p *pass, text []byte) {
	m := fig9Ratio.FindSubmatch(text)
	if m == nil {
		p.check(false, "fig9: no packet/circuit ratio in the output")
		return
	}
	ratio, err := strconv.ParseFloat(string(m[1]), 64)
	p.check(err == nil && ratio >= fig9RatioLow && ratio <= fig9RatioHigh,
		"fig9 packet/circuit power ratio %s outside [%.1f, %.1f]", m[1], fig9RatioLow, fig9RatioHigh)
}

// paperEvalSetup runs the paper's four scenarios on all three fabrics at
// one simulated cycle.
func paperEvalSetup(p *pass) ([]byte, error) {
	s, err := noc.NewSimulator()
	if err != nil {
		return nil, err
	}
	var out []byte
	for _, sc := range noc.PaperScenarios() {
		sc.Cycles = 1
		b, _, err := runFabrics(p, s.Fabrics(), sc)
		if err != nil {
			return nil, err
		}
		out = append(out, b...)
	}
	return out, nil
}

// runFabrics runs the scenario on each fabric and returns the results
// and their JSON, as nocbench -pattern prints it.
func runFabrics(p *pass, fabrics []noc.Fabric, sc noc.Scenario) ([]byte, []*noc.Result, error) {
	var out []byte
	var results []*noc.Result
	for _, f := range fabrics {
		kind := string(f.Kind())
		var r *noc.Result
		err := p.call("noc.run_s."+kind, "noc.Fabric.Run", func() (err error) {
			r, err = f.Run(sc)
			return err
		}, "fabric", kind)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", kind, err)
		}
		var b []byte
		if err := p.call("noc.result_json_s", "noc.Result.JSON", func() (err error) {
			b, err = r.JSON()
			return err
		}, "fabric", kind); err != nil {
			return nil, nil, err
		}
		out = append(append(out, b...), '\n')
		results = append(results, r)
	}
	return out, results, nil
}

// patternInputs is a synthetic-pattern scenario as its textual inputs,
// which both the noc scenario and the layer rebuild are parsed from.
type patternInputs struct {
	name, pattern, injection string
	mesh, cycles             int
}

// paperFreqMHz is the paper's Figure 9/10 operating point.
const paperFreqMHz = 25

// run executes the pattern on the fabrics and, on a traced pass,
// schedules the rebuild of each run from its layers.
func (in patternInputs) run(p *pass, fabrics []noc.Fabric) ([]byte, error) {
	inj, err := noc.ParseInjection(in.injection)
	if err != nil {
		return nil, err
	}
	sc := noc.Scenario{Name: in.name, Pattern: in.pattern, Injection: &inj,
		FreqMHz: paperFreqMHz, Data: noc.DefaultPattern(),
		MeshWidth: in.mesh, MeshHeight: in.mesh, Cycles: in.cycles, Seed: p.Seed}
	out, results, err := runFabrics(p, fabrics, sc)
	if err != nil {
		return nil, err
	}
	if p.layer != nil {
		for _, r := range results {
			p.after = append(p.after, func() { rebuild(p, in, sc, r) })
		}
	}
	return out, nil
}

func hotspotPass(p *pass) ([]byte, error) { return hotspotRun(p, p.sz.hotCycles) }

func hotspotRun(p *pass, cycles int) ([]byte, error) {
	s, err := noc.NewSimulator()
	if err != nil {
		return nil, err
	}
	in := patternInputs{"hotspot32", hotPattern, hotInjection, p.sz.hotMesh, cycles}
	return in.run(p, s.Fabrics())
}

func densePass(p *pass) ([]byte, error) { return denseRun(p, p.sz.denseCycles) }

func denseRun(p *pass, cycles int, opts ...noc.Option) ([]byte, error) {
	in := patternInputs{"uniform-dense", densePattern, denseInject, p.sz.denseMesh, cycles}
	return in.run(p, []noc.Fabric{noc.CircuitSwitched(opts...)})
}

// denseNaiveCheck runs a short uniform-dense slice under the naive
// oracle kernel and the default kernel; the outputs must be identical.
func denseNaiveCheck(p *pass) ([]byte, error) {
	def, err := denseRun(p, p.sz.naiveCycles)
	if err != nil {
		return nil, err
	}
	naive, err := denseRun(p, p.sz.naiveCycles, noc.WithKernel(noc.KernelNaive))
	if err != nil {
		return nil, err
	}
	p.check(bytes.Equal(def, naive), "uniform-dense: naive kernel output differs from the default kernel's")
	return def, nil
}

// defaultSimKernel resolves the noc package's default kernel to the
// simulation kernel it selects, by name, so the rebuilt layer calls run
// on whatever kernel users get.
func defaultSimKernel() (sim.Kernel, error) {
	k, err := noc.ParseKernel("")
	if err != nil {
		return 0, err
	}
	for sk := sim.Kernel(0); sk < 16; sk++ {
		if sk.String() == string(k) {
			return sk, nil
		}
	}
	return 0, fmt.Errorf("no simulation kernel named %q", k)
}

// rebuild reproduces one noc pattern run from its layers, records their
// per-layer costs, and checks that the composition delivers the same
// words and power as the noc run.
func rebuild(p *pass, in patternInputs, sc noc.Scenario, want *noc.Result) {
	kind := string(want.Fabric)
	end := p.tr.begin("bench.rebuild", "fabric", kind)
	defer end()
	fail := func(err error) { p.check(false, "rebuild %s: %v", kind, err) }
	sp, err := pattern.ParseSpatial(in.pattern)
	if err != nil {
		fail(err)
		return
	}
	inj, err := pattern.ParseInjection(in.injection)
	if err != nil {
		fail(err)
		return
	}
	kernel, err := defaultSimKernel()
	if err != nil {
		fail(err)
		return
	}
	lib := stdcell.Default013()
	// timed runs fn as a span and returns its duration.
	timed := func(metric, name string, fn func() error, args ...string) (float64, error) {
		before := p.layer[metric]
		err := p.call(metric, name, fn, args...)
		return p.layer[metric] - before, err
	}
	var words uint64
	var totalUW, layerS float64
	switch want.Fabric {
	case noc.KindCircuit:
		cfg := mesh.PatternConfig{W: sc.MeshWidth, H: sc.MeshHeight, Cycles: 1, FreqMHz: sc.FreqMHz,
			Lib: lib, Spatial: sp, Injection: inj, FlipProb: sc.Data.FlipProb, Seed: sc.Seed, Kernel: kernel}
		setup, err := timed("mesh.setup_s", "mesh.RunPattern", func() error {
			_, err := mesh.RunPattern(cfg)
			return err
		}, "cycles", "1")
		if err != nil {
			fail(err)
			return
		}
		cfg.Cycles = sc.Cycles
		cfg.Observe = func(w *sim.World) { observeWorld(p, w) }
		var pr *mesh.PatternResult
		layerS, err = timed("mesh.run_s", "mesh.RunPattern", func() (err error) {
			pr, err = mesh.RunPattern(cfg)
			return err
		}, "cycles", fmt.Sprint(sc.Cycles))
		if err != nil {
			fail(err)
			return
		}
		words, totalUW = pr.WordsDelivered, pr.Power.TotalUW()
		p.layer["mesh.cycle_us"] = (layerS - setup) / float64(sc.Cycles-1) * 1e6
		if visits := p.layer["sim.evals"] + p.layer["sim.polls"]; visits > 0 {
			p.layer["sim.ns_per_visit"] = layerS / visits * 1e9
		}
	case noc.KindPacket, noc.KindTDM:
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var flows []pattern.PortFlow
		layerS, _ = timed("pattern.portflows_s", "pattern.PortFlows", func() error {
			flows = pattern.PortFlows(sp, sc.MeshWidth, sc.MeshHeight,
				pattern.HotspotNode(sc.MeshWidth, sc.MeshHeight), sc.Seed)
			return nil
		})
		runtime.ReadMemStats(&after)
		p.layer["pattern.portflows_alloc_mb"] += float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
		rc := traffic.RunConfig{Cycles: sc.Cycles, FreqMHz: sc.FreqMHz, Lib: lib, Seed: sc.Seed, Kernel: kernel}
		var tr traffic.PatternRunResult
		metric, name := "traffic.packet_run_s", "traffic.RunPacketPattern"
		run := func() (err error) {
			tr, err = traffic.RunPacketPattern(flows, inj, sc.Data.FlipProb, rc)
			return err
		}
		if want.Fabric == noc.KindTDM {
			metric, name = "traffic.tdm_run_s", "traffic.RunTDMPattern"
			run = func() (err error) {
				tr, err = traffic.RunTDMPattern(aethereal.DefaultParams(), flows, inj, sc.Data.FlipProb, rc)
				return err
			}
		}
		d, err := timed(metric, name, run)
		if err != nil {
			fail(err)
			return
		}
		layerS += d
		words, totalUW = tr.WordsDelivered, tr.Power.TotalUW()
	default:
		fail(fmt.Errorf("unknown fabric"))
		return
	}
	p.layer["noc.overhead_s."+kind] = p.layer["noc.run_s."+kind] - layerS
	p.check(words == want.WordsDelivered && totalUW == want.Power.TotalUW,
		"rebuild %s: words %d power %v, noc reported words %d power %v",
		kind, words, totalUW, want.WordsDelivered, want.Power.TotalUW)
}

// observeWorld reads the kernel's scheduling counters after a run.
func observeWorld(p *pass, w *sim.World) {
	_, ff := w.FastForwards()
	p.layer["sim.evals"] = float64(w.Evals())
	p.layer["sim.skips"] = float64(w.Skips())
	p.layer["sim.polls"] = float64(w.Polls())
	p.layer["sim.ff_cycles"] = float64(ff)
	p.layer["sim.parked"] = float64(w.Parked())
	p.layer["sim.activations"] = float64(w.Activations())
}

// sweepSpec is the pattern sweep: three default fabrics crossed with
// three patterns and the given rates on an 8x8 mesh, cached in the
// task's directory when it has one.
func sweepSpec(p *pass, rates []float64, cycles int) noc.SweepSpec {
	return noc.SweepSpec{
		Name:         "nocperf",
		Grid:         &noc.Grid{Patterns: p.sz.sweepPatterns, InjectionRates: rates, Cycles: []int{cycles}},
		Replications: sweepReps, Workers: sweepWorkers, Seed: p.Seed,
		CacheDir: p.Dir,
	}
}

// sweepPhasePass runs one phase of a sweep-cache pass: the cold and warm
// phases run the spec, the extend phase the spec with rates appended.
func sweepPhasePass(p *pass) ([]byte, error) {
	rates := p.sz.sweepRates
	if p.Phase == "extend" {
		rates = p.sz.extendRates
	}
	return sweepRun(p, rates, p.sz.sweepCycles)
}

// sweepRun runs one sweep phase. On a traced pass it also watches the
// worker pool and reads the cache's counters.
func sweepRun(p *pass, rates []float64, cycles int) ([]byte, error) {
	spec := sweepSpec(p, rates, cycles)
	var mon *poolMonitor
	if p.layer != nil {
		mon = &poolMonitor{started: map[int]time.Time{}, done: map[int]time.Time{}}
		spec.Obs.Monitor = mon
		spec.Obs.Progress = mon.progress
	}
	var buf bytes.Buffer
	start := time.Now()
	if err := p.call("sweep.run_s."+p.Phase, "noc.SweepJSON", func() error {
		return noc.SweepJSON(context.Background(), spec, &buf)
	}, "phase", p.Phase); err != nil {
		return nil, err
	}
	if mon != nil {
		wall := time.Since(start).Seconds()
		p.after = append(p.after, func() { sweepLayers(p, mon, wall) })
	}
	return buf.Bytes(), nil
}

// poolMonitor records sweep worker-pool scheduling.
type poolMonitor struct {
	mu       sync.Mutex
	started  map[int]time.Time
	done     map[int]time.Time
	jobs     int
	busy     time.Duration
	emitWait time.Duration
	total    int // jobs in the sweep, pool and cache hits alike
}

func (m *poolMonitor) JobStart(worker, job int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.started[job] = time.Now()
	m.jobs++
}

func (m *poolMonitor) JobDone(worker, job int) {
	now := time.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	m.busy += now.Sub(m.started[job])
	m.done[job] = now
}

// progress receives every job in order; the wait since the job finished
// is the time its result sat behind earlier jobs.
func (m *poolMonitor) progress(pr noc.SweepProgress) error {
	now := time.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	m.total = pr.JobsTotal
	if t, ok := m.done[pr.JobsDone-1]; ok {
		m.emitWait += now.Sub(t)
	}
	return nil
}

// sweepLayers records the pool's and the cache's per-layer metrics of a
// traced sweep phase, and times the cache store after the cold phase.
func sweepLayers(p *pass, mon *poolMonitor, wall float64) {
	set := func(metric string, v float64) { p.layer[metric+"."+p.Phase] = v }
	set("sweep.jobs", float64(mon.jobs))
	set("sweep.busy_s", mon.busy.Seconds())
	set("sweep.pool_busy_frac", mon.busy.Seconds()/(sweepWorkers*wall))
	set("sweep.emit_wait_s", mon.emitWait.Seconds())
	c, err := noc.OpenCache(p.Dir)
	if err != nil {
		p.check(false, "open cache: %v", err)
		return
	}
	cc := c.Counters()
	set("cellcache.hits", float64(cc.Hits))
	set("cellcache.misses", float64(cc.Misses))
	set("cellcache.puts", float64(cc.Puts))
	set("cellcache.warm_hits", float64(cc.WarmHits))
	set("cellcache.warm_stores", float64(cc.WarmStores))
	if mon.total > 0 {
		set("cellcache.hit_ratio", float64(cc.Hits)/float64(mon.total))
		set("cellcache.lookups_per_job", float64(cc.Hits+cc.Misses)/float64(mon.total))
	}
	if p.Phase == "cold" {
		cacheMicro(p)
	}
}

// cacheMicro times direct store calls with payloads the size of the cold
// phase's cache entries: puts into an empty directory, then gets from a
// fresh store on it, so every get reads the disk as a new process does.
func cacheMicro(p *pass) {
	entries, err := filepath.Glob(filepath.Join(p.Dir, "*.cell"))
	if err != nil || len(entries) == 0 {
		p.check(false, "cache micro: no entries in %s", p.Dir)
		return
	}
	header := len(cellcache.EncodeEntry(nil))
	var sizes []int
	var total int64
	for _, e := range entries {
		st, err := os.Stat(e)
		if err != nil {
			p.check(false, "cache micro: %v", err)
			return
		}
		total += st.Size()
		sizes = append(sizes, max(int(st.Size())-header, 0))
	}
	p.layer["cellcache.bytes_per_entry"] = float64(total) / float64(len(entries))
	dir := p.Dir + "-micro"
	defer os.RemoveAll(dir)
	put, err := cellcache.NewDir(dir, 0)
	if err != nil {
		p.check(false, "cache micro: %v", err)
		return
	}
	keys := make([]cellcache.Key, len(sizes))
	for i, n := range sizes {
		keys[i] = cellcache.KeyOf([]byte(fmt.Sprint("nocperf", i)))
		payload := bytes.Repeat([]byte{byte(i)}, n)
		p.call("cellcache.put_us", "cellcache.Put", func() error { put.Put(keys[i], payload); return nil })
	}
	get, err := cellcache.NewDir(dir, 0)
	if err != nil {
		p.check(false, "cache micro: %v", err)
		return
	}
	for i := range keys {
		var ok bool
		p.call("cellcache.get_us", "cellcache.Get", func() error { _, ok = get.Get(keys[i]); return nil })
		p.check(ok, "cache micro: entry %d not read back", i)
	}
	n := float64(len(keys))
	p.layer["cellcache.put_us"] *= 1e6 / n
	p.layer["cellcache.get_us"] *= 1e6 / n
}

// Command nocbench regenerates the paper's tables and figures plus the
// reproduction's ablation experiments, as text or as structured JSON,
// and runs parameter sweeps across all CPU cores.
//
// Usage:
//
//	nocbench -list                 list all experiments
//	nocbench -run fig9             run one experiment
//	nocbench -run table4,fig10     run several
//	nocbench -run fig9 -json       emit the typed result as JSON
//	nocbench                       run everything
//	nocbench -parallel             run everything on all cores
//	nocbench -out results.txt      also write to a file
//	nocbench -sweep spec.json      run a parallel sweep from a spec file
//	nocbench -sweep spec.json -csv same, as CSV
//	nocbench -sweep spec.json -workers 4
//	nocbench -sweep spec.json -kernel naive
//	nocbench -sweep spec.json -reps 8
//	nocbench -pattern hotspot:0.7 -inject poisson:0.05 -mesh 16
//	nocbench -pattern uniform -reps 8 -warmup auto
//	nocbench -run fig9 -cpuprofile cpu.pprof
//	nocbench -sweep spec.json -trace trace.json -progress
//	nocbench -pattern uniform -trace trace.json -metrics
//	nocbench -vcd quicklook.vcd
//	nocbench -sweep spec.json -http localhost:6060
//
// A sweep spec is a JSON-encoded noc.SweepSpec: a set of fabrics crossed
// with an explicit scenario list or a cartesian parameter grid. The
// sweep engine fans the cells across a bounded worker pool and emits
// them in deterministic order, so the output is byte-identical for any
// worker count.
//
// -list, -vcd, -sweep and -pattern each pick a mode, and with none of
// them nocbench runs experiments. A flag its mode would ignore is an
// error: the modes exclude one another, -run, -json and -parallel apply
// only to experiment runs, -csv only to -sweep, and -workers to -sweep
// and -parallel.
//
// -pattern runs a synthetic traffic pattern on all three fabrics:
// a spatial pattern name ("uniform", "transpose", "bitcomp", "bitrev",
// "hotspot[:frac]", "neighbour", "perm") optionally combined with
// -inject "process:rate[:burstiness]" ("cbr", "bernoulli", "poisson",
// "onoff") and -mesh N for an N×N mesh (default 8) and -cycles for the
// simulated length (default 5000). The circuit fabric simulates the
// whole mesh; the packet and TDM fabrics are driven with the pattern's
// projection onto the mesh-centre router. Output is one JSON result per
// fabric. A default applies only to a flag left off the command line:
// an explicit -mesh 0 or -cycles 0 is an error.
//
// -reps runs every cell of a -sweep, or every fabric of a -pattern run,
// that many times with independent replication seeds and attaches
// mean/min/max/CI95 aggregates to each result (the "replication" JSON
// object, or the *_mean/*_ci95 CSV columns). -warmup truncates a
// -pattern run's measurement window: an explicit cycle count, or "auto"
// for MSER steady-state detection.
//
// -kernel selects the simulation kernel of a -sweep or -pattern run:
// "active" (the default production kernel: quiescent components are
// skipped, inert ones parked out of the sweep, fully quiescent windows
// fast-forwarded) or "naive" (evaluate everything, the oracle).
// Results are byte-identical under both kernels — the CI equivalence
// job runs the same sweeps under each and byte-compares. Every
// simulation runs on one goroutine; -workers spreads sweep cells and
// replications across cores. The experiments (-run/-parallel) always
// use the default, so the flag is rejected without -sweep or -pattern
// rather than silently ignored.
//
// Observability (none of it changes a byte of stdout results):
//
// -trace FILE writes the run's structured simulation events —
// cycle-timestamped kernel scheduling, flow setup/teardown, word
// injection and delivery, cache traffic — as Chrome trace-event JSON.
// Open the file in Perfetto (https://ui.perfetto.dev) or
// chrome://tracing; each sweep cell renders as one process row, each
// event track as one thread. With -pattern the three fabrics write
// separate files ("t.json" → "t.circuit.json" etc.).
//
// -progress streams a live heartbeat to stderr during a -sweep: cells
// and jobs completed, cache hits, errors, simulated-cycle rate, the
// worker pool's busy fraction and an ETA. All wall-clock arithmetic
// happens in this command; the sweep engine reports only deterministic
// counts.
//
// -metrics dumps the metrics registry (kernel scheduling gauges,
// lane-allocator counters, cache traffic) to stderr after the run.
//
// -vcd FILE writes the single-router quicklook capture as a Value
// Change Dump for GTKWave and friends, with the ASCII render on stdout.
//
// -http ADDR serves expvar (/debug/vars, including live sweep counters)
// and pprof (/debug/pprof) while the run executes.
//
// -cpuprofile / -memprofile write pprof profiles covering the whole run
// (flushed on errors and Ctrl-C too), so kernel work is measurable
// without editing code:
//
//	go tool pprof cpu.pprof
package main

import (
	"context"
	"expvar"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/noc"
)

func main() {
	if err := run(flag.CommandLine, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "nocbench:", err)
		os.Exit(1)
	}
}

// cliFlags is nocbench's parsed and checked command line.
type cliFlags struct {
	list                        bool
	runIDs, out                 string
	jsonOut, parallel, csv      bool
	sweepFile                   string
	workers                     int
	kernel                      string
	pattern, inject             string
	meshSize, cycles, reps      int
	warmup, cacheDir, traceFile string
	progress, metrics           bool
	vcdFile, httpAddr           string
	cpuProfile, memProfile      string
}

// parseFlags defines nocbench's flags on fs, parses args and checks them.
// A flag counts as given when it appears on the command line (flag.Visit),
// whatever its value, and a default applies only to a flag the caller did
// not give: an explicit `-mesh 0` or `-cycles 0` is an error, never a
// silent run of the 8×8, 5000-cycle defaults. Errors from fs.Parse pass
// through unchanged; every other error starts with the -flag it
// concerns, or with "unexpected argument".
func parseFlags(fs *flag.FlagSet, args []string) (*cliFlags, error) {
	f := &cliFlags{}
	fs.BoolVar(&f.list, "list", false, "list available experiments")
	fs.StringVar(&f.runIDs, "run", "", "comma-separated experiment ids (default: all)")
	fs.StringVar(&f.out, "out", "", "also write output to this file")
	fs.BoolVar(&f.jsonOut, "json", false, "emit typed experiment results as JSON instead of text")
	fs.StringVar(&f.sweepFile, "sweep", "", "run a parallel sweep from this JSON spec file")
	fs.IntVar(&f.workers, "workers", 0, "worker pool size for -sweep and -parallel (default GOMAXPROCS)")
	fs.BoolVar(&f.parallel, "parallel", false, "measure experiments on all cores (text output unchanged)")
	fs.BoolVar(&f.csv, "csv", false, "with -sweep: emit CSV instead of JSON")
	fs.StringVar(&f.kernel, "kernel", "", `with -sweep/-pattern: simulation kernel, "active" (default) or "naive" (the oracle)`)
	fs.StringVar(&f.pattern, "pattern", "", `run a synthetic traffic pattern on all three fabrics (e.g. "uniform", "hotspot:0.7")`)
	fs.StringVar(&f.inject, "inject", "", `with -pattern: injection process as "process:rate[:burstiness]" (e.g. "poisson:0.05", "onoff:0.1:8")`)
	fs.IntVar(&f.meshSize, "mesh", 0, "with -pattern: mesh size N for an NxN mesh, positive (default 8)")
	fs.IntVar(&f.cycles, "cycles", 0, "with -pattern: simulated cycles, positive (default 5000)")
	fs.IntVar(&f.reps, "reps", 0, "with -sweep/-pattern: replications per cell, aggregated as mean/CI95 (default single run)")
	fs.StringVar(&f.warmup, "warmup", "", `with -pattern: warm-up truncation, a cycle count or "auto" (MSER steady-state detection)`)
	fs.StringVar(&f.cacheDir, "cache", "", "with -sweep: serve cells from a content-addressed result cache in this directory")
	fs.StringVar(&f.traceFile, "trace", "", `with -sweep/-pattern: write the run's structured events as Chrome trace-event JSON to this file (open in Perfetto; -pattern writes one file per fabric with the kind inserted before the extension)`)
	fs.BoolVar(&f.progress, "progress", false, "with -sweep: stream a live progress heartbeat (cells, jobs, cache hits, cycle rate, worker busy fraction, ETA) to stderr")
	fs.BoolVar(&f.metrics, "metrics", false, "with -sweep/-pattern: dump the metrics registry snapshot to stderr after the run")
	fs.StringVar(&f.vcdFile, "vcd", "", "write the single-router quicklook capture (trace-recorder probes) as a VCD waveform to this file and its ASCII render to stdout")
	fs.StringVar(&f.httpAddr, "http", "", `serve expvar (/debug/vars) and pprof (/debug/pprof) on this address for the duration of the run (e.g. "localhost:6060")`)
	fs.StringVar(&f.cpuProfile, "cpuprofile", "", "write a CPU profile of the run to this file")
	fs.StringVar(&f.memProfile, "memprofile", "", "write a heap profile at exit to this file")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	set := map[string]bool{}
	fs.Visit(func(fl *flag.Flag) { set[fl.Name] = true })

	if _, err := noc.ParseKernel(f.kernel); err != nil {
		return nil, fmt.Errorf("-kernel: %w", err)
	}
	sweepOrPattern := f.sweepFile != "" || f.pattern != ""
	if set["kernel"] && !sweepOrPattern {
		return nil, fmt.Errorf("-kernel only applies to -sweep and -pattern runs (experiments always use the default)")
	}
	for _, name := range []string{"inject", "mesh", "cycles"} {
		if set[name] && f.pattern == "" {
			return nil, fmt.Errorf("-%s only applies to -pattern runs", name)
		}
	}
	if set["mesh"] && f.meshSize <= 0 {
		return nil, fmt.Errorf("-mesh must be positive, got %d", f.meshSize)
	}
	if set["cycles"] && f.cycles <= 0 {
		return nil, fmt.Errorf("-cycles must be positive, got %d", f.cycles)
	}
	if f.reps < 0 {
		return nil, fmt.Errorf("-reps must be non-negative, got %d", f.reps)
	}
	if set["reps"] && !sweepOrPattern {
		return nil, fmt.Errorf("-reps only applies to -sweep and -pattern runs")
	}
	if set["warmup"] && f.pattern == "" {
		return nil, fmt.Errorf("-warmup only applies to -pattern runs")
	}
	if set["cache"] && f.sweepFile == "" {
		return nil, fmt.Errorf("-cache only applies to -sweep runs")
	}
	if set["cache"] && f.cacheDir == "" {
		return nil, fmt.Errorf("-cache needs a directory")
	}
	if set["trace"] && !sweepOrPattern {
		return nil, fmt.Errorf("-trace only applies to -sweep and -pattern runs")
	}
	if f.progress && f.sweepFile == "" {
		return nil, fmt.Errorf("-progress only applies to -sweep runs")
	}
	if f.metrics && !sweepOrPattern {
		return nil, fmt.Errorf("-metrics only applies to -sweep and -pattern runs")
	}
	if f.csv && f.sweepFile == "" {
		return nil, fmt.Errorf("-csv only applies to -sweep runs")
	}
	if set["workers"] && f.sweepFile == "" && !f.parallel {
		return nil, fmt.Errorf("-workers only applies to -sweep and -parallel runs")
	}
	// -list, -vcd, -sweep and -pattern each pick a mode; with none of
	// them nocbench runs experiments, the only mode -run, -json and
	// -parallel apply to.
	mode := ""
	for _, m := range []struct {
		flag string
		on   bool
	}{
		{"-list", f.list},
		{"-vcd", f.vcdFile != ""},
		{"-sweep", f.sweepFile != ""},
		{"-pattern", f.pattern != ""},
	} {
		switch {
		case !m.on:
		case mode != "":
			return nil, fmt.Errorf("%s does not combine with %s", mode, m.flag)
		default:
			mode = m.flag
		}
	}
	for _, name := range []string{"run", "json", "parallel"} {
		if set[name] && mode != "" {
			return nil, fmt.Errorf("-%s only applies to experiment runs, not to %s", name, mode)
		}
	}
	return f, nil
}

// run parses args on fs and writes the chosen mode's output to stdout
// (and to the -out file). It owns every deferred cleanup (profile
// flushes, file closes), so any exit path — error, Ctrl-C cancellation,
// success — leaves complete, loadable pprof files behind.
func run(fs *flag.FlagSet, args []string, stdout io.Writer) (err error) {
	fl, err := parseFlags(fs, args)
	if err != nil {
		return err
	}
	if fl.cpuProfile != "" {
		f, ferr := os.Create(fl.cpuProfile)
		if ferr != nil {
			return ferr
		}
		defer f.Close()
		if perr := pprof.StartCPUProfile(f); perr != nil {
			return perr
		}
		defer pprof.StopCPUProfile()
	}
	if fl.memProfile != "" {
		defer func() {
			werr := writeHeapProfile(fl.memProfile)
			if err == nil {
				err = werr
			}
		}()
	}

	w := stdout
	if fl.out != "" {
		f, ferr := os.Create(fl.out)
		if ferr != nil {
			return ferr
		}
		defer f.Close()
		w = io.MultiWriter(stdout, f)
	}

	if fl.httpAddr != "" {
		// expvar and net/http/pprof register on the default mux at
		// import; progress expvars are published by runSweep.
		ln, lerr := net.Listen("tcp", fl.httpAddr)
		if lerr != nil {
			return lerr
		}
		defer ln.Close()
		srv := &http.Server{}
		defer srv.Close()
		go srv.Serve(ln)
		fmt.Fprintf(os.Stderr, "nocbench: serving http://%s/debug/vars and /debug/pprof\n", ln.Addr())
	}

	switch {
	case fl.list:
		for _, e := range noc.Experiments() {
			fmt.Fprintf(w, "%-10s %-55s [%s]\n", e.ID, e.Title, e.Paper)
		}
		return nil
	case fl.vcdFile != "":
		return writeQuicklookVCD(w, fl.vcdFile)
	case fl.sweepFile != "":
		return runSweep(w, fl)
	case fl.pattern != "":
		return runPattern(w, fl)
	}
	return runExperiments(w, fl)
}

// runExperiments measures the experiments -run names (default: all) and
// writes them to w as text or, with -json, as one JSON array of the
// experiments' documents. They are measured one after another, or with
// -parallel on -workers workers; the bytes are the same either way.
// Every id is looked up before anything is measured, and the JSON array
// is written only after every experiment is measured, so an unknown id
// writes nothing and a failed measurement never leaves truncated JSON.
func runExperiments(w io.Writer, fl *cliFlags) error {
	var ids []string
	if fl.runIDs == "" {
		for _, e := range noc.Experiments() {
			ids = append(ids, e.ID)
		}
	} else {
		for _, id := range strings.Split(fl.runIDs, ",") {
			ids = append(ids, strings.TrimSpace(id))
		}
	}
	workers := 1
	if fl.parallel {
		workers = fl.workers
	}
	if !fl.jsonOut {
		return noc.RunExperimentsParallel(w, ids, workers)
	}
	docs, err := noc.ExperimentsJSON(ids, workers)
	if err != nil {
		return err
	}
	fmt.Fprint(w, "[\n")
	for i, b := range docs {
		if _, err := w.Write(b); err != nil {
			return err
		}
		if i < len(docs)-1 {
			fmt.Fprint(w, ",")
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "]")
	return nil
}

// writeHeapProfile dumps the heap profile after a GC, so allocation
// statistics are current.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC()
	return pprof.WriteHeapProfile(f)
}

// writeQuicklookVCD runs the single-router trace-recorder quicklook (a
// configuration command establishing Tile.0 → East.0 followed by one
// word serializing across the crossbar), writes the capture as a VCD
// file any waveform viewer opens, and renders the ASCII timing diagram
// to w.
func writeQuicklookVCD(w io.Writer, path string) error {
	wf, err := noc.CaptureWaveform()
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, wf.VCD, 0o644); err != nil {
		return err
	}
	if _, err := io.WriteString(w, wf.ASCII); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "nocbench: wrote %d-cycle, %d-signal quicklook VCD to %s\n",
		wf.Cycles, len(wf.Signals), path)
	return nil
}

// patternTracePath derives the per-fabric trace filename of a -pattern
// run: the fabric kind inserted before the extension, so three fabrics
// sharing one -trace flag write three valid Chrome JSON documents.
func patternTracePath(base string, kind noc.Kind) string {
	ext := filepath.Ext(base)
	return strings.TrimSuffix(base, ext) + "." + string(kind) + ext
}

// dumpMetrics renders a metrics snapshot to stderr, one line per sample.
func dumpMetrics(label string, samples []obs.Sample) {
	for _, s := range samples {
		fmt.Fprintf(os.Stderr, "nocbench: metric %s%s %s=%d", label, s.Name, s.Kind, s.Value)
		if s.Kind == "histogram" {
			fmt.Fprintf(os.Stderr, " sum=%d", s.Sum)
		}
		fmt.Fprintln(os.Stderr)
	}
}

// runPattern executes the -pattern scenario on all three fabrics and
// emits one JSON result per fabric. With -trace each fabric's structured
// events go to their own Chrome trace JSON; with -metrics each fabric's
// registry snapshot is dumped to stderr. Neither changes a byte of the
// JSON results on stdout.
func runPattern(w io.Writer, fl *cliFlags) error {
	sc := noc.Scenario{Name: "pattern:" + fl.pattern, Pattern: fl.pattern}
	if fl.inject != "" {
		inj, err := noc.ParseInjection(fl.inject)
		if err != nil {
			return err
		}
		sc.Injection = &inj
	}
	if fl.meshSize != 0 {
		sc.MeshWidth, sc.MeshHeight = fl.meshSize, fl.meshSize
	}
	sc.Cycles = fl.cycles
	sc.Replications = fl.reps
	if fl.warmup != "" {
		if fl.warmup == "auto" {
			sc.WarmupAuto = true
		} else {
			n, err := strconv.Atoi(fl.warmup)
			if err != nil || n < 0 {
				return fmt.Errorf(`-warmup must be "auto" or a non-negative cycle count, got %q`, fl.warmup)
			}
			sc.WarmupCycles = n
		}
	}
	k, err := noc.ParseKernel(fl.kernel)
	if err != nil {
		return err
	}
	kinds := []noc.Kind{noc.KindCircuit, noc.KindPacket, noc.KindTDM}
	fabricOpts := make([][]noc.Option, len(kinds))
	for i, kind := range kinds {
		fabricOpts[i] = []noc.Option{noc.WithKernel(k)}
		if fl.traceFile != "" {
			f, ferr := os.Create(patternTracePath(fl.traceFile, kind))
			if ferr != nil {
				return ferr
			}
			defer f.Close()
			fabricOpts[i] = append(fabricOpts[i], noc.WithTrace(f))
		}
		if fl.metrics {
			fabricOpts[i] = append(fabricOpts[i], noc.WithMetrics(true))
		}
	}
	sim, err := noc.NewSimulator(
		noc.CircuitSwitched(fabricOpts[0]...),
		noc.PacketSwitched(fabricOpts[1]...),
		noc.AetherealTDM(fabricOpts[2]...),
	)
	if err != nil {
		return err
	}
	results, err := sim.Run(sc)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "[")
	for i, r := range results {
		b, err := r.JSON()
		if err != nil {
			return err
		}
		if _, err := w.Write(b); err != nil {
			return err
		}
		if i < len(results)-1 {
			fmt.Fprint(w, ",")
		}
		fmt.Fprintln(w)
		if fl.metrics {
			dumpMetrics(string(r.Fabric)+".", r.Metrics)
		}
	}
	fmt.Fprintln(w, "]")
	return nil
}

// busyMonitor tracks per-worker wall-clock busy time from the sweep
// engine's scheduling callbacks. All wall-clock accounting lives here,
// on the CLI side — the deterministic engine only reports counts.
type busyMonitor struct {
	mu     sync.Mutex
	busy   map[int]time.Duration
	active map[int]time.Time
}

func newBusyMonitor() *busyMonitor {
	return &busyMonitor{busy: map[int]time.Duration{}, active: map[int]time.Time{}}
}

// JobStart implements noc.SweepMonitor.
func (m *busyMonitor) JobStart(worker, job int) {
	m.mu.Lock()
	m.active[worker] = time.Now()
	m.mu.Unlock()
}

// JobDone implements noc.SweepMonitor.
func (m *busyMonitor) JobDone(worker, job int) {
	m.mu.Lock()
	if t, ok := m.active[worker]; ok {
		m.busy[worker] += time.Since(t)
		delete(m.active, worker)
	}
	m.mu.Unlock()
}

// busyFraction returns the pool's mean busy fraction over the elapsed
// window: total busy time (in-flight jobs included) over workers×elapsed.
func (m *busyMonitor) busyFraction(workers int, elapsed time.Duration) float64 {
	if workers <= 0 || elapsed <= 0 {
		return 0
	}
	m.mu.Lock()
	var total time.Duration
	for _, d := range m.busy {
		total += d
	}
	for _, t := range m.active {
		total += time.Since(t)
	}
	m.mu.Unlock()
	return float64(total) / (float64(workers) * float64(elapsed))
}

// runSweep loads the -sweep noc.SweepSpec and streams the cells to w.
// Ctrl-C cancels the sweep cleanly mid-run. The observability flags
// (-cache traffic, -trace, -progress, -metrics, -http) all report to
// stderr, side files or /debug/vars — sweep output on stdout stays
// byte-identical with any combination of them enabled.
func runSweep(w io.Writer, fl *cliFlags) error {
	b, err := os.ReadFile(fl.sweepFile)
	if err != nil {
		return err
	}
	spec, err := noc.ParseSweepSpec(b)
	if err != nil {
		return err
	}
	if fl.workers != 0 {
		spec.Workers = fl.workers
	}
	if fl.kernel != "" {
		spec.Kernel = fl.kernel
	}
	if fl.reps != 0 {
		spec.Replications = fl.reps
	}
	if fl.cacheDir != "" {
		spec.CacheDir = fl.cacheDir
	}
	if fl.traceFile != "" {
		f, ferr := os.Create(fl.traceFile)
		if ferr != nil {
			return ferr
		}
		defer f.Close()
		spec.Obs.Trace = f
	}
	var reg *obs.Registry
	if fl.metrics {
		reg = obs.NewRegistry()
		spec.Obs.Metrics = reg
	}
	// -http publishes the live sweep counters to /debug/vars, with or
	// without -progress; only the stderr heartbeat is tied to -progress.
	var jobsDone, cellsDone *expvar.Int
	if fl.httpAddr != "" {
		jobsDone = expvar.NewInt("nocbench.sweep.jobs_done")
		cellsDone = expvar.NewInt("nocbench.sweep.cells_done")
	}
	var mon *busyMonitor
	if fl.progress {
		mon = newBusyMonitor()
		spec.Obs.Monitor = mon
	}
	if jobsDone != nil || mon != nil {
		poolWorkers := spec.Workers
		if poolWorkers == 0 {
			poolWorkers = runtime.GOMAXPROCS(0)
		}
		start := time.Now()
		var lastBeat time.Time
		// Progress is called from the engine's single emission goroutine
		// in deterministic job order; everything wall-clock-derived is
		// computed here.
		spec.Obs.Progress = func(p noc.SweepProgress) error {
			if jobsDone != nil {
				jobsDone.Set(int64(p.JobsDone))
				cellsDone.Set(int64(p.CellsDone))
			}
			if mon == nil {
				return nil
			}
			done := p.JobsDone == p.JobsTotal
			if !done && time.Since(lastBeat) < 250*time.Millisecond {
				return nil
			}
			lastBeat = time.Now()
			elapsed := time.Since(start)
			eta := "?"
			if p.JobsDone > 0 {
				rem := time.Duration(float64(elapsed) / float64(p.JobsDone) *
					float64(p.JobsTotal-p.JobsDone))
				eta = rem.Round(time.Second).String()
			}
			fmt.Fprintf(os.Stderr,
				"nocbench: cells %d/%d jobs %d/%d hits %d errs %d | %.2g cycles/s busy %.0f%% eta %s\n",
				p.CellsDone, p.CellsTotal, p.JobsDone, p.JobsTotal, p.CacheHits, p.Errors,
				float64(p.CyclesDone)/elapsed.Seconds(),
				100*mon.busyFraction(poolWorkers, elapsed), eta)
			return nil
		}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	runErr := func() error {
		if fl.csv {
			return noc.SweepCSV(ctx, spec, w)
		}
		return noc.SweepJSON(ctx, spec, w)
	}()
	if reg != nil {
		dumpMetrics("", reg.Snapshot())
	}
	if fl.cacheDir != "" {
		// OpenCache deduplicates per directory, so this reads the
		// instance the sweep just used.
		if c, cerr := noc.OpenCache(spec.CacheDir); cerr == nil {
			s := c.Counters()
			fmt.Fprintf(os.Stderr, "nocbench: cache hits=%d misses=%d puts=%d\n",
				s.Hits, s.Misses, s.Puts)
		}
	}
	return runErr
}

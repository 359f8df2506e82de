package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// taskEnv carries a child's task; a process started with it set runs
// that one task and exits.
const taskEnv = "NOCPERF_TASK"

// Run shape: set-up is measured at least minSetups times per run, spread
// across the run, and more often while set-ups have taken less than
// 1/setupShare of the time so far, so a set-up of a few milliseconds
// still gets a steady median. Every run makes at least minPasses timed
// passes. A block of passes between two runs of the reference twin lasts
// at least blockTwins twin times. A traced run times its untraced
// baseline over a quarter of the window.
const (
	minSetups  = 5
	setupShare = 10
	minPasses  = 3
	blockTwins = 2
)

// options configures a benchmark run.
type options struct {
	self    string // executable re-run as the child of every pass
	workDir string // scratch space for sweep caches
	seed    uint64
	window  time.Duration
	trace   bool
	quick   bool
}

// childRun is one finished child process as the parent saw it.
type childRun struct {
	res   *childResult
	wall  float64 // seconds from start to exit
	rssMB float64 // the child's ru_maxrss
}

// spawn runs one task in a fresh process and waits for it to end;
// cancelling ctx kills the process.
func (o *options) spawn(ctx context.Context, t task) (childRun, error) {
	t.Seed, t.Quick = o.seed, o.quick
	b, err := json.Marshal(t)
	if err != nil {
		return childRun{}, err
	}
	cmd := exec.CommandContext(ctx, o.self)
	cmd.Env = append(os.Environ(), taskEnv+"="+string(b))
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	err = cmd.Run()
	cr := childRun{wall: time.Since(start).Seconds()}
	if cmd.ProcessState != nil {
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			cr.rssMB = float64(ru.Maxrss) / 1024 // Linux reports kilobytes
		}
	}
	if err != nil {
		return cr, fmt.Errorf("%s %s child: %v: %s", t.Workload, t.Kind, err, lastLine(stderr.Bytes()))
	}
	var res childResult
	if err := json.Unmarshal(lastLine(stdout.Bytes()), &res); err != nil {
		return cr, fmt.Errorf("%s %s child: bad result: %v", t.Workload, t.Kind, err)
	}
	cr.res = &res
	return cr, nil
}

// lastLine returns the last non-empty line of b.
func lastLine(b []byte) []byte {
	lines := bytes.Split(bytes.TrimSpace(b), []byte("\n"))
	return lines[len(lines)-1]
}

// childMain runs the task named by the environment and prints its
// result as one JSON line.
func childMain(spec string) int {
	var t task
	if err := json.Unmarshal([]byte(spec), &t); err != nil {
		fmt.Fprintln(os.Stderr, "nocperf child:", err)
		return 2
	}
	if err := json.NewEncoder(os.Stdout).Encode(runTask(t)); err != nil {
		fmt.Fprintln(os.Stderr, "nocperf child:", err)
		return 1
	}
	return 0
}

// runReport is one run of one workload: the raw samples behind every
// metric, the reported values and the correctness accounting.
type runReport struct {
	Workload  string               `json:"workload"`
	Seed      uint64               `json:"seed"`
	Trace     bool                 `json:"trace"`
	Quick     bool                 `json:"quick,omitempty"`
	Nproc     int                  `json:"nproc"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Failures  []string             `json:"failures,omitempty"`
	Digest    string               `json:"digest,omitempty"`
	Samples   map[string][]float64 `json:"samples"`
	Values    map[string]float64   `json:"values"`

	traced []tracedPass
}

// op counts one checked operation.
func (r *runReport) op(ok bool, format string, args ...any) {
	r.Attempted++
	if !ok {
		r.Failed++
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// child accounts a child process: the process itself is one operation,
// and so is every check it made. It reports whether the child produced
// a result.
func (r *runReport) child(cr childRun, err error) bool {
	r.op(err == nil, "%v", err)
	if err != nil {
		return false
	}
	r.Attempted += cr.res.Checks
	r.Failed += len(cr.res.Failed)
	r.Failures = append(r.Failures, cr.res.Failed...)
	return cr.res.Digest != ""
}

func (r *runReport) sample(name string, v float64) { r.Samples[name] = append(r.Samples[name], v) }

// passRun is one timed pass or set-up as the parent saw it: the times of
// its child processes summed, their peak memory, and the output digest.
type passRun struct {
	wall, rssMB, workS, allocMB float64
	gcs                         uint32
	digest                      string
	parts                       map[string]float64 // each sweep-cache phase's time
	layer                       map[string]float64 // per-layer metrics of a traced pass
	traced                      []tracedPass
}

// runWorkload measures one workload for the run's window, or until ctx
// is cancelled.
func runWorkload(ctx context.Context, o *options, wl string) *runReport {
	r := &runReport{Workload: wl, Seed: o.seed, Trace: o.trace, Quick: o.quick, Nproc: runtime.NumCPU(),
		Samples: map[string][]float64{}, Values: map[string]float64{}}
	dir := filepath.Join(o.workDir, wl)
	defer os.RemoveAll(dir)
	if wl == "uniform-dense" {
		r.child(o.spawn(ctx, task{Workload: wl, Kind: "naive"}))
	}

	var setupDigest string
	caches := 0
	// run runs one pass or set-up: a child process, or for a sweep-cache
	// pass one child per phase on a new, empty cache directory. Every
	// output must match the first of its kind. It returns nil if a child
	// failed.
	run := func(kind string, traced bool) *passRun {
		phases, d, want := []string{""}, "", &r.Digest
		if kind == "setup" {
			// Set-up runs without the sweep cache: it measures building
			// and assembling the runs, not the cache's disk traffic.
			want = &setupDigest
		} else if wl == "sweep-cache" {
			phases = sweepPhases
			caches++
			d = filepath.Join(dir, fmt.Sprint("cache-", caches))
			defer os.RemoveAll(d)
		}
		p := &passRun{parts: map[string]float64{}, layer: map[string]float64{}}
		var digests []string
		for _, ph := range phases {
			cr, err := o.spawn(ctx, task{Workload: wl, Kind: kind, Phase: ph, Dir: d, Trace: traced})
			if !r.child(cr, err) {
				return nil
			}
			p.wall += cr.wall
			p.rssMB = max(p.rssMB, cr.rssMB)
			p.workS += cr.res.WorkS
			p.allocMB += cr.res.AllocMB
			p.gcs += cr.res.GCs
			if ph != "" {
				p.parts[ph] = cr.wall
			}
			maps.Copy(p.layer, cr.res.Layer)
			if traced {
				label := strings.TrimSpace(wl+" "+ph) + " traced pass"
				p.traced = append(p.traced, tracedPass{Label: label, Spans: cr.res.Spans})
			}
			digests = append(digests, cr.res.Digest)
		}
		p.digest = digests[0]
		if len(phases) > 1 {
			// The warm phase must reproduce the cold phase's bytes.
			r.op(digests[1] == digests[0], "%s: warm output digest %s, cold %s", wl, digests[1], digests[0])
			sum := sha256.Sum256([]byte(strings.Join(digests, "")))
			p.digest = hex.EncodeToString(sum[:])
		}
		if *want == "" {
			*want = p.digest
		} else {
			r.op(p.digest == *want, "%s: %s digest %s, want %s", wl, kind, p.digest, *want)
		}
		if kind == "pass" && !traced {
			r.sample("peak_rss_mb", p.rssMB)
			r.sample("work_s", p.workS)
			r.sample("go.alloc_mb", p.allocMB)
			r.sample("go.gc_count", float64(p.gcs))
		}
		return p
	}

	start := time.Now()
	if o.trace {
		for n := 0; ctx.Err() == nil && (n < minPasses || time.Since(start) < o.window/4); n++ {
			run("pass", false)
		}
		if p := run("pass", true); p != nil {
			r.traced = append(r.traced, p.traced...)
			r.layerValues(p)
		}
	} else {
		// The host's speed drifts by a fifth and more within seconds, so
		// measured children run in blocks between two runs of the
		// reference twin, and each child's time is scaled by the
		// reference time over the mean of the two twin times. A block is
		// a set-up when one is due, then passes until the block has
		// lasted blockTwins twin times, so short children share a pair
		// of twins instead of each paying for one.
		before := r.calibrate(ctx, o)
		type measured struct {
			metric string
			p      *passRun
		}
		setups, passes := 0, 0
		var setupTime time.Duration
		for ctx.Err() == nil {
			el := time.Since(start)
			if setups >= minSetups && passes >= minPasses && el >= o.window {
				break
			}
			var block []measured
			blockStart := time.Now()
			// Set-ups are spread across the window, between passes.
			if setups < minSetups && el >= time.Duration(setups)*o.window/minSetups ||
				setups <= passes && setupTime < el/setupShare {
				t := time.Now()
				block = append(block, measured{"setup_s", run("setup", false)})
				setupTime += time.Since(t)
				setups++
			}
			for n := 0; n == 0 || ctx.Err() == nil && time.Since(blockStart).Seconds() < blockTwins*before; n++ {
				block = append(block, measured{"wall_s", run("pass", false)})
				passes++
			}
			after := r.calibrate(ctx, o)
			if before > 0 && after > 0 {
				scale := calibrationRefS / ((before + after) / 2)
				for _, m := range block {
					if m.p == nil {
						continue
					}
					r.sample(m.metric, m.p.wall*scale)
					r.sample("raw_"+m.metric, m.p.wall)
					for ph, t := range m.p.parts {
						r.sample(ph+"_s", t*scale)
					}
				}
			}
			before = after
		}
		for _, m := range endToEnd {
			r.Values[m.Name] = median(r.Samples[m.Name])
		}
	}
	if want, ok := goldens[wl]; ok && o.seed == 1 && !o.quick {
		r.op(r.Digest == want, "%s: seed-1 output digest %s, golden %s", wl, r.Digest, want)
	}
	return r
}

// layerValues fills the per-layer metrics from the traced pass and the
// untraced passes before it. Layers the workload never calls read 0.
func (r *runReport) layerValues(traced *passRun) {
	for _, m := range perLayer {
		r.Values[m.Name] = traced.layer[m.Name]
	}
	r.Values["go.alloc_mb"] = median(r.Samples["go.alloc_mb"])
	r.Values["go.gc_count"] = median(r.Samples["go.gc_count"])
	r.Values["bench.trace_overhead_frac"] = traced.workS/median(r.Samples["work_s"]) - 1
}

// calibrationRefS is the reference twin's time on a quiet host: measured
// times are reported as if the host ran at that speed.
const calibrationRefS = 0.33

// calibrate runs the reference twin once and returns its wall time, 0
// if it failed.
func (r *runReport) calibrate(ctx context.Context, o *options) float64 {
	cr, err := o.spawn(ctx, task{Kind: "calibrate"})
	if !r.child(cr, err) {
		return 0
	}
	r.sample("calibration_s", cr.wall)
	return cr.wall
}

// metricsOf returns the declared metrics a run reports: the end-to-end
// ones untraced, the per-layer ones traced.
func metricsOf(r *runReport) []metricDef {
	if r.Trace {
		return perLayer
	}
	return endToEnd
}

// printReport writes one line per metric, "workload metric value unit
// n=count", plus the failure share, the sweep-cache phases' scaled
// times, the unscaled times as this host measured them and, where enough
// passes ran, the tail percentile of the pass time.
func printReport(w io.Writer, r *runReport) {
	line := func(name string, v float64, unit string, n int) {
		fmt.Fprintf(w, "%s %s %.6g %s n=%d\n", r.Workload, name, v, unit, n)
	}
	for _, m := range metricsOf(r) {
		n := len(r.Samples[m.Name])
		if r.Trace && n == 0 {
			n = 1
		}
		line(m.Name, r.Values[m.Name], m.Unit, n)
	}
	if !r.Trace {
		var names []string
		for _, ph := range sweepPhases {
			names = append(names, ph+"_s")
		}
		for _, name := range append(names, "raw_setup_s", "raw_wall_s", "calibration_s") {
			if n := len(r.Samples[name]); n > 0 {
				line(name, median(r.Samples[name]), "s", n)
			}
		}
	}
	if p, v, ok := tailPercentile(r.Samples["wall_s"]); ok {
		line(fmt.Sprint("wall_s_p", p), v, "s", len(r.Samples["wall_s"]))
	}
	fmt.Fprintf(w, "%s failed_frac %.6g ratio n=%d\n", r.Workload,
		float64(r.Failed)/float64(max(r.Attempted, 1)), r.Attempted)
	fmt.Fprintf(w, "%s nproc %d count n=1\n", r.Workload, r.Nproc)
	fmt.Fprintf(w, "# %s seed %d output sha256 %s\n", r.Workload, r.Seed, r.Digest)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "# %s FAILED: %s\n", r.Workload, f)
	}
}

// metricValue is one metric of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// summarize folds the runs into the result line. A single workload's
// metrics keep their names; several are prefixed with the workload.
func summarize(reports []*runReport) resultLine {
	out := resultLine{Metrics: map[string]metricValue{}}
	for _, r := range reports {
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		for _, m := range metricsOf(r) {
			name := m.Name
			if len(reports) > 1 {
				name = r.Workload + "/" + name
			}
			v := r.Values[m.Name]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				// Only a run whose passes all failed has no value, and
				// its failures already make the result incorrect.
				v = 0
			}
			out.Metrics[name] = metricValue{Value: v, Unit: m.Unit}
		}
	}
	out.Attempted = max(out.Attempted, 1)
	out.Correct = out.Failed == 0
	return out
}

// appendRuns appends the reports to a run file, one JSON object a line.
func appendRuns(path string, reports []*runReport) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, r := range reports {
		if err := enc.Encode(r); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// readRuns loads a run file written by appendRuns.
func readRuns(path string) ([]*runReport, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []*runReport
	for i, line := range strings.Split(string(b), "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		var r runReport
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, i+1, err)
		}
		out = append(out, &r)
	}
	return out, nil
}

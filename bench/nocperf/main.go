// Command nocperf is the end-to-end benchmark of the simulator: it runs
// the paper's evaluation, a hotspot mesh study, a dense mesh and a
// cached sweep session, each pass in a fresh child process, and prints
// every metric with its unit followed by one JSON result line.
//
// Usage, from the repository root:
//
//	bash bench/run.sh [-workload all|NAME] [-seed N] [-trace 0|1]
//	                  [-spans spans.json] [-out runs.jsonl] [-quick]
//	bash bench/run.sh -compare base.jsonl new.jsonl
//
// BENCHMARK.json's command is run as "--workload W --seed N --seconds S
// --trace 0|1"; -seconds is that protocol's measuring window and
// defaults to its run_seconds.
//
// With -trace 1 each workload gets one traced pass: spans around every
// call the benchmark makes into a layer of the program, written as a
// Chrome trace-event file (-spans) with a self-time table, and the
// per-layer metrics in place of the end-to-end ones. -out appends every
// run, raw samples included, to a file that -compare reads.
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

// defaultSeconds is the measuring window of one workload run; it equals
// BENCHMARK.json's run_seconds.
const defaultSeconds = 28

// buildDir holds everything the benchmark builds and writes, relative to
// the repository root it runs from.
const buildDir = ".bench_build/nocperf"

// goldens are the SHA-256 digests of every workload's output at -seed 1.
//
//go:embed goldens.json
var goldensJSON []byte

var goldens = func() map[string]string {
	m := map[string]string{}
	if err := json.Unmarshal(goldensJSON, &m); err != nil {
		panic(fmt.Sprintf("goldens.json: %v", err))
	}
	return m
}()

func main() {
	if spec := os.Getenv(taskEnv); spec != "" {
		os.Exit(childMain(spec))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses the command line and runs the benchmark or the
// comparison, returning the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("nocperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", defaultSeconds, "measuring window of each workload run, as BENCHMARK.json's run_seconds")
	trace := fs.Int("trace", 0, "1 runs one traced pass per workload and reports the per-layer metrics")
	spans := fs.String("spans", filepath.Join(buildDir, "spans.json"), "Chrome trace-event file of a traced run")
	out := fs.String("out", "", "append every run, raw samples included, to this file")
	compare := fs.Bool("compare", false, "compare two run files: -compare base new")
	quick := fs.Bool("quick", false, "tiny workload sizes and only the minimum of passes, for a smoke test")
	workDir := fs.String("workdir", buildDir, "scratch directory for sweep caches")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "nocperf: -compare takes two run files")
			return 2
		}
		base, err := readRuns(fs.Arg(0))
		if err != nil {
			fmt.Fprintln(stderr, "nocperf:", err)
			return 2
		}
		changed, err := readRuns(fs.Arg(1))
		if err != nil {
			fmt.Fprintln(stderr, "nocperf:", err)
			return 2
		}
		if compareSets(stdout, base, changed) {
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "nocperf: want -seconds >= 1, -trace 0 or 1 and no arguments")
		return 2
	}
	names := []string{*workload}
	if *workload == "all" {
		names = nil
		for _, w := range workloadDefs {
			names = append(names, w.Name)
		}
	} else if workloadByName(*workload) < 0 {
		fmt.Fprintf(stderr, "nocperf: unknown workload %q\n", *workload)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "nocperf:", err)
		return 1
	}
	scratch := filepath.Join(*workDir, fmt.Sprint("work-", os.Getpid()))
	defer os.RemoveAll(scratch)
	// An interrupt kills the running child and ends the run without a
	// result, after the scratch directory is removed.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	window := time.Duration(*seconds) * time.Second
	if *quick {
		window = 0
	}
	o := &options{self: self, workDir: scratch, seed: *seed, window: window, trace: *trace == 1, quick: *quick}

	var reports []*runReport
	var traced []tracedPass
	for _, name := range names {
		r := runWorkload(ctx, o, name)
		if ctx.Err() != nil {
			fmt.Fprintln(stderr, "nocperf: interrupted")
			return 1
		}
		printReport(stdout, r)
		reports = append(reports, r)
		traced = append(traced, r.traced...)
	}
	if o.trace {
		writeSelfTimeTable(stdout, selfTimeTable(traced))
		if err := writeSpans(*spans, traced); err != nil {
			fmt.Fprintln(stderr, "nocperf:", err)
			return 1
		}
		fmt.Fprintf(stdout, "# spans written to %s\n", *spans)
	}
	if *out != "" {
		if err := appendRuns(*out, reports); err != nil {
			fmt.Fprintln(stderr, "nocperf:", err)
			return 1
		}
	}
	if err := json.NewEncoder(stdout).Encode(summarize(reports)); err != nil {
		fmt.Fprintln(stderr, "nocperf:", err)
		return 1
	}
	return 0
}

// writeSpans writes the traced passes to a Chrome trace-event file.
func writeSpans(path string, passes []tracedPass) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeChromeTrace(f, passes); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

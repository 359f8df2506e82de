package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the test binary serve as the child process of every
// pass, as the nocperf binary does.
func TestMain(m *testing.M) {
	if spec := os.Getenv(taskEnv); spec != "" {
		os.Exit(childMain(spec))
	}
	os.Exit(m.Run())
}

// TestQuickRunsEveryWorkload runs every workload at its -quick size,
// untraced and traced, and checks the correctness accounting and the
// metrics each reports.
func TestQuickRunsEveryWorkload(t *testing.T) {
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	o := &options{self: self, workDir: t.TempDir(), seed: 7, quick: true}
	for _, w := range workloadDefs {
		r := runWorkload(context.Background(), o, w.Name)
		if r.Failed != 0 || r.Attempted < minSetups+minPasses {
			t.Errorf("%s: %d of %d operations failed: %q", w.Name, r.Failed, r.Attempted, r.Failures)
		}
		for _, m := range endToEnd {
			if v := r.Values[m.Name]; !(v > 0) {
				t.Errorf("%s %s = %v, want > 0", w.Name, m.Name, v)
			}
		}
	}
	o.trace = true
	layer := map[string]map[string]float64{}
	for _, w := range workloadDefs {
		r := runWorkload(context.Background(), o, w.Name)
		want := 1 // one traced process per pass, one per phase on sweep-cache
		if w.Name == "sweep-cache" {
			want = len(sweepPhases)
		}
		if r.Failed != 0 || len(r.traced) != want {
			t.Errorf("%s traced: %d failures %q, %d traced processes", w.Name, r.Failed, r.Failures, len(r.traced))
		}
		layer[w.Name] = r.Values
	}
	for _, c := range []struct {
		workload, metric string
		want             func(float64) bool
	}{
		{"paper-eval", "experiments.fig9_s", positive},
		{"paper-eval", "pattern.portflows_s", zero},
		{"hotspot32", "pattern.portflows_s", positive},
		{"hotspot32", "mesh.run_s", positive},
		{"hotspot32", "sim.evals", positive},
		{"uniform-dense", "pattern.portflows_s", zero},
		{"uniform-dense", "noc.run_s.circuit", positive},
		{"sweep-cache", "cellcache.lookups_per_job.cold", func(v float64) bool { return v >= 1 }},
		{"sweep-cache", "sweep.jobs.cold", positive},
		{"sweep-cache", "cellcache.hit_ratio.warm", func(v float64) bool { return v == 1 }},
		{"sweep-cache", "cellcache.get_us", positive},
		{"sweep-cache", "cellcache.puts.extend", positive},
	} {
		if v := layer[c.workload][c.metric]; !c.want(v) {
			t.Errorf("%s %s = %v", c.workload, c.metric, v)
		}
	}
}

func positive(v float64) bool { return v > 0 }
func zero(v float64) bool     { return v == 0 }

// TestCommandLine drives run as the shell does: it must end with the
// JSON result line, append the run file that -compare reads, and reject
// bad flags.
func TestCommandLine(t *testing.T) {
	dir := t.TempDir()
	runs := filepath.Join(dir, "runs.jsonl")
	var out, errOut bytes.Buffer
	args := []string{"-quick", "-workload", "uniform-dense", "-seed", "3", "-workdir", dir, "-out", runs}
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	if !res.Correct || res.Attempted < 1 || len(res.Metrics) != len(endToEnd) {
		t.Errorf("result line %+v", res)
	}
	if !strings.Contains(out.String(), "uniform-dense wall_s ") {
		t.Errorf("no wall_s line in\n%s", out.String())
	}
	out.Reset()
	if code := run([]string{"-compare", runs, runs}, &out, &errOut); code != 0 ||
		!strings.Contains(out.String(), verdictUnchanged) {
		t.Errorf("-compare of a run file with itself: exit %d\n%s", code, out.String())
	}
	for _, bad := range [][]string{{"-trace", "2"}, {"-workload", "nope"}, {"-compare", runs}, {"-seconds", "0"}} {
		if code := run(bad, &out, &errOut); code != 2 {
			t.Errorf("%q: exit %d, want 2", bad, code)
		}
	}
}

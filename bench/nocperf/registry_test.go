package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json; decoding rejects unknown keys.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	namePattern = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitPattern = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// maxBound is the loosest bound BENCHMARK.json may give a metric.
const maxBound = 0.25

func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var f benchmarkFile
	if err := dec.Decode(&f); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if !reflect.DeepEqual(f.Command, []string{"bash", "bench/run.sh"}) || !reflect.DeepEqual(f.Paths, []string{"bench"}) {
		t.Errorf("command %q, paths %q", f.Command, f.Paths)
	}
	if f.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the command's default window is %d s", f.RunSeconds, defaultSeconds)
	}
	if len(f.Workloads) > 8 || len(f.EndToEnd) > 16 || len(f.PerLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end and %d per-layer metrics exceed 8, 16, 128",
			len(f.Workloads), len(f.EndToEnd), len(f.PerLayer))
	}
	seen := map[string]bool{}
	checkName := func(kind, name string) {
		if !namePattern.MatchString(name) {
			t.Errorf("%s name %q does not match %s", kind, name, namePattern)
		}
		if seen[name] {
			t.Errorf("%s name %q used twice", kind, name)
		}
		seen[name] = true
	}

	if len(f.Workloads) != len(workloadDefs) {
		t.Fatalf("BENCHMARK.json has %d workloads, the registry %d", len(f.Workloads), len(workloadDefs))
	}
	for i, w := range f.Workloads {
		checkName("workload", w.Name)
		if w.Name != workloadDefs[i].Name || w.Why != workloadDefs[i].Why {
			t.Errorf("workload %d: %+v, registry %+v", i, w, workloadDefs[i])
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}

	if len(f.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the registry %d", len(f.EndToEnd), len(endToEnd))
	}
	setupBound := -1.0
	for i, m := range f.EndToEnd {
		checkName("metric", m.Name)
		r := endToEnd[i]
		if m.Name != r.Name || m.Unit != r.Unit || m.Better != r.Better || m.Bound != r.Bound {
			t.Errorf("end-to-end metric %d: %+v, registry %+v", i, m, r)
		}
		if !unitPattern.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > maxBound {
			t.Errorf("end-to-end metric %s: unit %q, bound %v", m.Name, m.Unit, m.Bound)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
			if m.Unit != "s" || m.Better != "lower" {
				t.Errorf("setup_s must be in s, lower is better")
			}
		}
	}
	for _, m := range f.EndToEnd {
		if setupBound < m.Bound {
			t.Errorf("setup_s bound %v is not the largest (%s: %v)", setupBound, m.Name, m.Bound)
		}
	}

	if len(f.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the registry %d", len(f.PerLayer), len(perLayer))
	}
	for i, m := range f.PerLayer {
		checkName("metric", m.Name)
		r := perLayer[i]
		if m.Name != r.Name || m.Unit != r.Unit || m.Better != r.Better {
			t.Errorf("per-layer metric %d: %+v, registry %+v", i, m, r)
		}
		if !unitPattern.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer metric %s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
	}
}

func TestEveryLayerMetricNamesWhatItMoves(t *testing.T) {
	e2e := map[string]bool{}
	for _, m := range endToEnd {
		e2e[m.Name] = true
	}
	for _, m := range perLayer {
		if len(m.Moves) == 0 && !strings.HasPrefix(m.Name, "bench.") {
			t.Errorf("%s names no end-to-end metric it moves", m.Name)
		}
		for _, mv := range m.Moves {
			metric, wl, ok := strings.Cut(mv, "@")
			if !ok || !e2e[metric] || workloadByName(wl) < 0 {
				t.Errorf("%s moves %q: want an end-to-end metric@workload", m.Name, mv)
			}
		}
	}
	if len(experimentIDs) != 19 {
		t.Errorf("%d experiments, the paper evaluation has 19", len(experimentIDs))
	}
}

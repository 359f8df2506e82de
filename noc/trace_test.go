package noc

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"repro/internal/obs"
)

// collectEvents runs the fabric with an injected collector and returns
// the canonical-order event stream.
func collectEvents(t *testing.T, f Fabric, sc Scenario) []obs.Event {
	t.Helper()
	col := obs.NewCollector()
	f.(*fabric).obs = obs.Hooks{Tracer: col}
	if _, err := f.Run(sc); err != nil {
		t.Fatalf("%s: %v", f, err)
	}
	return col.Events()
}

// metricValue returns the named sample's value from the Result's metrics
// snapshot, and whether the snapshot holds it.
func metricValue(res *Result, name string) (int64, bool) {
	for _, s := range res.Metrics {
		if s.Name == name {
			return s.Value, true
		}
	}
	return 0, false
}

// domainOnly filters a stream down to ScopeDomain events.
func domainOnly(evs []obs.Event) []obs.Event {
	var out []obs.Event
	for _, e := range evs {
		if e.Scope == obs.ScopeDomain {
			out = append(out, e)
		}
	}
	return out
}

// TestTraceEquivalenceKernels: domain-scope event streams (flow setup,
// injection, delivery — simulation facts) must be identical under every
// kernel, on every fabric. Kernel-scope events (eval/park/wake) differ
// between kernels by design and are excluded.
func TestTraceEquivalenceKernels(t *testing.T) {
	sc, err := PaperScenario("IV")
	if err != nil {
		t.Fatal(err)
	}
	sc.Cycles = 800
	for _, c := range kernelCases() {
		var ref []obs.Event
		var refKernel Kernel
		for _, k := range allKernels {
			evs := domainOnly(collectEvents(t, c.build(k), sc))
			if len(evs) == 0 {
				t.Fatalf("%s/%s: no domain events traced", c.name, k)
			}
			if ref == nil {
				ref, refKernel = evs, k
				continue
			}
			if len(evs) != len(ref) {
				t.Errorf("%s: %s traced %d domain events, %s traced %d",
					c.name, refKernel, len(ref), k, len(evs))
				continue
			}
			for i := range ref {
				if ref[i] != evs[i] {
					t.Errorf("%s: domain stream diverges at %d:\n%s: %+v\n%s: %+v",
						c.name, i, refKernel, ref[i], k, evs[i])
					break
				}
			}
		}
	}
}

// TestTraceEquivalenceShards: a traced sweep whose cells are sharded
// across the worker pool must export the identical Chrome trace — kernel
// scope included — for any worker count, because every event is stamped
// with its cell and the exporter order is canonical.
func TestTraceEquivalenceShards(t *testing.T) {
	trace := func(workers int) []byte {
		spec := SweepSpec{
			Fabrics: []FabricSpec{{Kind: KindCircuit}, {Kind: KindTDM}},
			Grid:    &Grid{Scenarios: []string{"III", "IV"}, Cycles: []int{400}},
			Workers: workers,
			Seed:    3,
		}
		var out, tr bytes.Buffer
		spec.Obs.Trace = &tr
		if err := SweepJSON(context.Background(), spec, &out); err != nil {
			t.Fatal(err)
		}
		return tr.Bytes()
	}
	one, many := trace(1), trace(8)
	if !bytes.Contains(one, []byte(`"eval"`)) {
		t.Fatalf("trace holds no kernel-scope eval events: %.200s", one)
	}
	if !bytes.Equal(one, many) {
		t.Fatalf("sweep trace differs between 1 and 8 workers (%d vs %d bytes)", len(one), len(many))
	}
}

// TestTracingDoesNotChangeResults: enabling tracing and metrics must
// leave the Result wire bytes identical on every fabric — the layer
// observes the simulation, it never steers it.
func TestTracingDoesNotChangeResults(t *testing.T) {
	sc, err := PaperScenario("IV")
	if err != nil {
		t.Fatal(err)
	}
	sc.Cycles = 800
	cases := []struct {
		name  string
		build func(o ...Option) Fabric
	}{
		{"circuit", CircuitSwitched},
		{"packet", PacketSwitched},
		{"tdm", AetherealTDM},
	}
	for _, c := range cases {
		plain, err := c.build().Run(sc)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		var trace bytes.Buffer
		traced, err := c.build(WithTrace(&trace), WithMetrics(true)).Run(sc)
		if err != nil {
			t.Fatalf("%s traced: %v", c.name, err)
		}
		pb, err := json.Marshal(plain)
		if err != nil {
			t.Fatal(err)
		}
		tb, err := json.Marshal(traced)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(pb, tb) {
			t.Errorf("%s: tracing changed the result\nplain:  %s\ntraced: %s", c.name, pb, tb)
		}
		// The trace itself must be non-trivial, valid Chrome trace JSON.
		var doc struct {
			TraceEvents []map[string]any `json:"traceEvents"`
		}
		if err := json.Unmarshal(trace.Bytes(), &doc); err != nil {
			t.Errorf("%s: trace output is not valid JSON: %v", c.name, err)
		} else if len(doc.TraceEvents) == 0 {
			t.Errorf("%s: trace output holds no events", c.name)
		}
		// And the metrics snapshot must have landed on the Result (outside
		// the JSON surface: the field is json:"-").
		if len(traced.Metrics) == 0 {
			t.Errorf("%s: WithMetrics(true) produced no metrics snapshot", c.name)
		}
	}
}

// TestMetricsSnapshotContents: the circuit pattern path populates the
// kernel gauges and the lane-allocator instruments, and the snapshot is
// sorted by name.
func TestMetricsSnapshotContents(t *testing.T) {
	sc := Scenario{
		Name: "metrics-pat", Pattern: "uniform", MeshWidth: 4, MeshHeight: 4,
		Cycles: 800, Seed: 7,
	}
	res, err := CircuitSwitched(WithMetrics(true)).Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]obs.Sample{}
	prev := ""
	for _, s := range res.Metrics {
		if s.Name < prev {
			t.Errorf("snapshot not sorted: %q after %q", s.Name, prev)
		}
		prev = s.Name
		byName[s.Name] = s
	}
	for _, want := range []string{"kernel.polls", "mesh.alloc.probes", "mesh.alloc.hops"} {
		if _, ok := byName[want]; !ok {
			t.Errorf("metrics snapshot is missing %q (have %d samples)", want, len(res.Metrics))
		}
	}
	if g := byName["kernel.polls"]; g.Value == 0 {
		t.Errorf("kernel.polls gauge is zero")
	}
}

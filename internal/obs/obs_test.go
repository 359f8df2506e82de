package obs

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
)

// someEvents is a small unsorted event set exercising every field.
func someEvents() []Event {
	return []Event{
		{Cycle: 9, Track: "router(1,1)", Kind: KindDeliver, Value: 4},
		{Cycle: 2, Scope: ScopeKernel, Track: "kernel", Kind: KindFastForward, Value: 17},
		{Cycle: 2, Track: "src(0,0)", Kind: KindInject, Value: -3, Detail: "flow 2"},
		{Cycle: 2, Track: "src(0,0)", Kind: KindInject, Value: -3, Detail: "flow 1"},
		{Cycle: 2, Cell: 1, Track: "src(0,0)", Kind: KindInject},
		{Cycle: 0, Track: "mesh.flows", Kind: KindFlowSetup, Value: 1},
	}
}

func TestCollectorCanonicalOrder(t *testing.T) {
	c := NewCollector()
	for _, e := range someEvents() {
		c.Emit(e)
	}
	evs := c.Events()
	if len(evs) != 6 {
		t.Fatalf("got %d events, want 6", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if less(evs[i], evs[i-1]) {
			t.Fatalf("events not in canonical order at %d: %+v > %+v", i, evs[i-1], evs[i])
		}
	}
	// Cell sorts first, then cycle.
	if evs[len(evs)-1].Cell != 1 {
		t.Fatalf("cell-1 event should sort last, got %+v", evs[len(evs)-1])
	}
	if evs[0] != (Event{Cycle: 0, Track: "mesh.flows", Kind: KindFlowSetup, Value: 1}) {
		t.Fatalf("unexpected first event %+v", evs[0])
	}
}

// TestCollectorDeterministicAcrossInterleavings is the exporter-side
// determinism property: the same event multiset emitted from concurrent
// goroutines exports the same bytes as a sequential emission.
func TestCollectorDeterministicAcrossInterleavings(t *testing.T) {
	seq := NewCollector()
	for _, e := range someEvents() {
		seq.Emit(e)
	}
	par := NewCollector()
	var wg sync.WaitGroup
	for _, e := range someEvents() {
		wg.Add(1)
		go func(e Event) {
			defer wg.Done()
			par.Emit(e)
		}(e)
	}
	wg.Wait()

	var a, b bytes.Buffer
	if err := WriteChrome(&a, seq.Events()); err != nil {
		t.Fatal(err)
	}
	if err := WriteChrome(&b, par.Events()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("chrome export differs between emission interleavings")
	}
}

func TestWriteChromeParses(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChrome(&buf, someEvents()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Pid  int    `json:"pid"`
			Tid  int    `json:"tid"`
			Ts   uint64 `json:"ts"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace does not parse: %v", err)
	}
	instants, metas := 0, 0
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "i":
			instants++
		case "M":
			metas++
		default:
			t.Fatalf("unexpected phase %q", e.Ph)
		}
	}
	if instants != 6 {
		t.Fatalf("got %d instant events, want 6", instants)
	}
	if metas == 0 {
		t.Fatal("no process/thread name metadata emitted")
	}
}

func TestCellTracer(t *testing.T) {
	c := NewCollector()
	CellTracer{T: c, Cell: 7}.Emit(Event{Cycle: 1, Track: "x", Kind: KindEval})
	evs := c.Events()
	if len(evs) != 1 || evs[0].Cell != 7 {
		t.Fatalf("cell not stamped: %+v", evs)
	}
}

func TestRegistrySnapshotSortedAndTyped(t *testing.T) {
	r := NewRegistry()
	r.Counter("kernel.evals").Add(10)
	r.Counter("kernel.evals").Add(5)
	r.Gauge("kernel.parked").Set(-2)
	h := r.Histogram("alloc.path_len")
	h.Observe(0)
	h.Observe(3)
	h.Observe(300)

	snap := r.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("got %d samples, want 3", len(snap))
	}
	for i := 1; i < len(snap); i++ {
		if snap[i].Name < snap[i-1].Name {
			t.Fatalf("snapshot not sorted: %q before %q", snap[i-1].Name, snap[i].Name)
		}
	}
	byName := map[string]Sample{}
	for _, s := range snap {
		byName[s.Name] = s
	}
	if s := byName["kernel.evals"]; s.Kind != "counter" || s.Value != 15 {
		t.Fatalf("counter sample wrong: %+v", s)
	}
	if s := byName["kernel.parked"]; s.Kind != "gauge" || s.Value != -2 {
		t.Fatalf("gauge sample wrong: %+v", s)
	}
	s := byName["alloc.path_len"]
	if s.Kind != "histogram" || s.Value != 3 || s.Sum != 303 {
		t.Fatalf("histogram sample wrong: %+v", s)
	}
	if len(s.Buckets) != 3 {
		t.Fatalf("histogram buckets wrong: %+v", s.Buckets)
	}
	if s.Buckets[0].Le != 0 || s.Buckets[1].Le != 3 || s.Buckets[2].Le != 511 {
		t.Fatalf("bucket bounds wrong: %+v", s.Buckets)
	}
}

func TestRegistryNilSafe(t *testing.T) {
	var r *Registry
	r.Counter("x").Add(1)
	r.Gauge("x").Set(1)
	r.Histogram("x").Observe(1)
	if r.Snapshot() != nil {
		t.Fatal("nil registry should snapshot to nil")
	}
	if r.Counter("x").Value() != 0 || r.Gauge("x").Value() != 0 {
		t.Fatal("nil instruments should read zero")
	}
}

func TestRegistryKindCollisionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("reusing a name across kinds should panic")
		}
	}()
	r := NewRegistry()
	r.Counter("x")
	r.Gauge("x")
}

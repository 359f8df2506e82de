package noc

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

// shortSweepSpec is a sweep small enough for tests but wide enough to
// exercise every fabric and the reorder buffer.
func shortSweepSpec(workers int) SweepSpec {
	return SweepSpec{
		Name: "test",
		Grid: &Grid{
			Scenarios: []string{"II", "IV"},
			Loads:     []float64{0.5, 1},
			Cycles:    []int{400},
		},
		Workers: workers,
		Seed:    7,
	}
}

func TestSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	var w1, w8 bytes.Buffer
	if err := SweepJSON(context.Background(), shortSweepSpec(1), &w1); err != nil {
		t.Fatal(err)
	}
	if err := SweepJSON(context.Background(), shortSweepSpec(8), &w8); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w1.Bytes(), w8.Bytes()) {
		t.Fatalf("workers=1 and workers=8 JSON differ:\n--- w1 ---\n%s\n--- w8 ---\n%s",
			w1.String(), w8.String())
	}
	// The stream must be valid JSON with the expected cell count:
	// 3 fabrics x 2 scenarios x 2 loads x 1 cycle count.
	var cells []SweepCell
	if err := json.Unmarshal(w1.Bytes(), &cells); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(cells) != 12 {
		t.Fatalf("cells = %d, want 12", len(cells))
	}
	for i, c := range cells {
		if c.Index != i {
			t.Errorf("cell %d has index %d", i, c.Index)
		}
		if c.Error != "" {
			t.Errorf("cell %d failed: %s", i, c.Error)
		}
		// Scenario II's only stream leaves on East, which the circuit-
		// and packet-switched fabrics cannot observe end to end — so
		// assert on words offered, not delivered.
		if c.Result == nil || c.Result.WordsSent == 0 {
			t.Errorf("cell %d sent nothing", i)
		}
		if c.Seed == 0 {
			t.Errorf("cell %d has no seed", i)
		}
	}
}

func TestSweepCSVDeterministicAndShaped(t *testing.T) {
	var c1, c4 bytes.Buffer
	if err := SweepCSV(context.Background(), shortSweepSpec(1), &c1); err != nil {
		t.Fatal(err)
	}
	if err := SweepCSV(context.Background(), shortSweepSpec(4), &c4); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(c1.Bytes(), c4.Bytes()) {
		t.Fatal("workers=1 and workers=4 CSV differ")
	}
	lines := strings.Split(strings.TrimSpace(c1.String()), "\n")
	if len(lines) != 13 { // header + 12 cells
		t.Fatalf("CSV lines = %d, want 13", len(lines))
	}
	if !strings.HasPrefix(lines[0], "index,fabric,scenario,") {
		t.Fatalf("unexpected header %q", lines[0])
	}
}

func TestSweepCellSeedsAreDistinctAndStable(t *testing.T) {
	spec := shortSweepSpec(0)
	cells, err := spec.Cells()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]int{}
	for _, c := range cells {
		if prev, dup := seen[c.Seed]; dup {
			t.Errorf("cells %d and %d share seed %d", prev, c.Index, c.Seed)
		}
		seen[c.Seed] = c.Index
	}
	again, err := spec.Cells()
	if err != nil {
		t.Fatal(err)
	}
	for i := range cells {
		if cells[i].Seed != again[i].Seed {
			t.Errorf("cell %d seed changed between enumerations", i)
		}
	}
	// A different sweep seed must move every cell seed.
	spec.Seed = 8
	moved, err := spec.Cells()
	if err != nil {
		t.Fatal(err)
	}
	for i := range cells {
		if cells[i].Seed == moved[i].Seed {
			t.Errorf("cell %d seed did not change with the sweep seed", i)
		}
	}
}

func TestSweepPreservesExplicitScenarioSeed(t *testing.T) {
	spec := SweepSpec{
		Fabrics:   []FabricSpec{{Kind: KindCircuit}},
		Scenarios: []Scenario{{Name: "x", Streams: PaperStreams()[:1], Seed: 99}},
	}
	cells, err := spec.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if cells[0].Seed != 99 {
		t.Fatalf("cell seed = %d, want the scenario's explicit 99", cells[0].Seed)
	}
}

func TestSweepContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	spec := SweepSpec{
		Grid:    &Grid{Cycles: []int{20000, 20000, 20000, 20000}},
		Workers: 2,
	}
	done := 0
	errc := make(chan error, 1)
	go func() {
		errc <- Sweep(ctx, spec, func(SweepCell) error {
			done++
			if done == 1 {
				cancel()
			}
			return nil
		})
	}()
	err := <-errc
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	total := 3 * 4 * 4 // fabrics x scenarios x cycle axis
	if done >= total {
		t.Fatalf("sweep ran all %d cells despite cancellation", total)
	}
}

func TestSweepCallbackErrorAborts(t *testing.T) {
	boom := errors.New("boom")
	spec := SweepSpec{Fabrics: []FabricSpec{{Kind: KindCircuit}},
		Grid: &Grid{Scenarios: []string{"I", "II"}, Cycles: []int{200}}}
	err := Sweep(context.Background(), spec, func(SweepCell) error { return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

func TestSweepSpecValidation(t *testing.T) {
	lw := -2
	cases := []struct {
		name string
		spec SweepSpec
		frag string
	}{
		{"negative workers", SweepSpec{Workers: -1}, "negative worker count"},
		{"unknown fabric kind", SweepSpec{
			Fabrics: []FabricSpec{{Kind: "quantum"}}}, "unknown fabric kind"},
		{"bad fabric config", SweepSpec{
			Fabrics: []FabricSpec{{Kind: KindCircuit, Lanes: -1}}}, "lane per port"},
		{"bad latency words", SweepSpec{
			Fabrics: []FabricSpec{{Kind: KindPacket, LatencyWords: &lw}}}, "latency word"},
		{"scenarios and grid", SweepSpec{
			Scenarios: []Scenario{{Name: "x"}},
			Grid:      &Grid{}}, "mutually exclusive"},
		{"unknown grid scenario", SweepSpec{
			Grid: &Grid{Scenarios: []string{"V"}}}, "unknown paper scenario"},
		{"bad scenario load", SweepSpec{
			Grid: &Grid{Loads: []float64{2}}}, "load"},
		{"bad explicit scenario", SweepSpec{
			Scenarios: []Scenario{{Name: "dup", Streams: []Stream{
				{ID: 1, In: Tile, Out: East}, {ID: 1, In: North, Out: Tile},
			}}}}, "duplicate stream"},
		{"bad corner", SweepSpec{
			Fabrics: []FabricSpec{{Kind: KindTDM, Corner: "slow"}}}, "corner"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.spec.Validate()
			if err == nil {
				t.Fatal("spec accepted")
			}
			if !strings.Contains(err.Error(), tc.frag) {
				t.Fatalf("error %q does not mention %q", err, tc.frag)
			}
			if _, err := SweepAll(context.Background(), tc.spec); err == nil {
				t.Fatal("SweepAll accepted invalid spec")
			}
		})
	}
	if err := (SweepSpec{}).Validate(); err != nil {
		t.Fatalf("default spec rejected: %v", err)
	}
}

func TestSweepGridExpansion(t *testing.T) {
	spec := SweepSpec{
		Fabrics: []FabricSpec{{Kind: KindCircuit}},
		Grid: &Grid{
			Scenarios: []string{"III"},
			FreqsMHz:  []float64{25, 50},
			Loads:     []float64{0.25},
		},
	}
	cells, err := spec.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("cells = %d, want 2", len(cells))
	}
	names := []string{cells[0].Scenario.Name, cells[1].Scenario.Name}
	want := []string{"III/f=25/load=0.25", "III/f=50/load=0.25"}
	for i := range names {
		if names[i] != want[i] {
			t.Errorf("cell %d name = %q, want %q", i, names[i], want[i])
		}
	}
	if cells[1].Scenario.FreqMHz != 50 || cells[1].Scenario.Data.Load != 0.25 {
		t.Errorf("cell 1 parameters not applied: %+v", cells[1].Scenario)
	}
}

func TestSweepRecordsCellErrorWithoutAborting(t *testing.T) {
	// Stream ID 9 has no lane on a 4-lane router: the circuit fabric
	// fails at run time, after spec validation.
	spec := SweepSpec{
		Fabrics: []FabricSpec{{Kind: KindCircuit}},
		Scenarios: []Scenario{
			{Name: "bad", Streams: []Stream{{ID: 9, In: Tile, Out: East}}, Cycles: 200},
			{Name: "good", Streams: PaperStreams()[:1], Cycles: 200},
		},
	}
	cells, err := SweepAll(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("cells = %d, want 2", len(cells))
	}
	if cells[0].Error == "" || cells[0].Result != nil {
		t.Errorf("bad cell not recorded as failed: %+v", cells[0])
	}
	if cells[1].Error != "" || cells[1].Result == nil {
		t.Errorf("good cell did not run: %+v", cells[1])
	}
}

func TestParseSweepSpec(t *testing.T) {
	spec, err := ParseSweepSpec([]byte(`{
		"name": "demo",
		"fabrics": [{"kind": "circuit", "gated": true}, {"kind": "packet"}],
		"grid": {"scenarios": ["III"], "loads": [0.5, 1]},
		"workers": 2,
		"seed": 42
	}`))
	if err != nil {
		t.Fatal(err)
	}
	cells, err := spec.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 4 {
		t.Fatalf("cells = %d, want 4", len(cells))
	}
	if _, err := ParseSweepSpec([]byte(`{"grid": {"laods": [1]}}`)); err == nil {
		t.Fatal("typoed axis name accepted")
	}
	if _, err := ParseSweepSpec([]byte(`{"workers": -3}`)); err == nil {
		t.Fatal("invalid spec accepted")
	}
	if _, err := ParseSweepSpec([]byte(`not json`)); err == nil {
		t.Fatal("garbage accepted")
	}
	// Only whitespace may follow the spec object: trailing garbage and
	// a second concatenated spec fail instead of running the first.
	for _, trailing := range []string{
		`{"grid":{"scenarios":["I"],"cycles":[100]},"seed":1} trailing garbage {`,
		`{"grid":{"scenarios":["I"],"cycles":[100]},"seed":1}{"seed":2}`,
	} {
		_, err := ParseSweepSpec([]byte(trailing))
		if err == nil || !strings.HasPrefix(err.Error(), "noc:") || !strings.Contains(err.Error(), "after the spec object") {
			t.Errorf("%s: err = %v, want a noc: error about data after the spec object", trailing, err)
		}
	}
	if _, err := ParseSweepSpec([]byte("{\"seed\":1} \t\r\n")); err != nil {
		t.Errorf("trailing whitespace rejected: %v", err)
	}
	// Removed knobs fail as unknown fields rather than being ignored.
	for _, c := range []struct{ spec, field string }{
		{`{"sim_workers": 8}`, "sim_workers"},
		{`{"fabrics": [{"kind": "circuit", "sim_workers": 8}]}`, "sim_workers"},
		{`{"fabrics": [{"kind": "circuit", "lane_width": 4}]}`, "lane_width"},
		{`{"cache": true}`, "cache"},
	} {
		if _, err := ParseSweepSpec([]byte(c.spec)); err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("%s: err = %v, want an unknown-field error naming %s", c.spec, err, c.field)
		}
	}
	// Explicit zeros on the integer axes are rejected, naming the axis,
	// instead of labelling cells "mesh=0" or "cycles=0" while the
	// defaults run.
	for _, c := range []struct{ spec, axis string }{
		{`{"grid": {"patterns": ["uniform"], "mesh_sizes": [0], "cycles": [500]}}`, "mesh_sizes"},
		{`{"grid": {"patterns": ["uniform"], "mesh_sizes": [4, -2]}}`, "mesh_sizes"},
		{`{"grid": {"scenarios": ["III"], "cycles": [0]}}`, "cycles"},
		{`{"grid": {"patterns": ["uniform"], "cycles": [-5]}}`, "cycles"},
	} {
		_, err := ParseSweepSpec([]byte(c.spec))
		if err == nil || !strings.Contains(err.Error(), c.axis) {
			t.Errorf("%s: err = %v, want an error naming %s", c.spec, err, c.axis)
		}
	}
}

func TestFabricSpecRoundTrip(t *testing.T) {
	zero := 0
	specs := []FabricSpec{
		{Kind: KindCircuit, Gated: true, Corner: "hvt"},
		{Kind: KindPacket, VCs: 2, BufferDepth: 4, LatencyWords: &zero},
		{Kind: KindTDM, Slots: 16, BEDepth: 8},
	}
	for _, fs := range specs {
		f, err := fs.Fabric()
		if err != nil {
			t.Fatalf("%s: %v", fs.Kind, err)
		}
		if f.Kind() != fs.Kind {
			t.Errorf("kind = %s, want %s", f.Kind(), fs.Kind)
		}
		b, err := json.Marshal(fs)
		if err != nil {
			t.Fatal(err)
		}
		var back FabricSpec
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatal(err)
		}
		if _, err := back.Fabric(); err != nil {
			t.Errorf("%s: JSON round trip broke the spec: %v", fs.Kind, err)
		}
	}
}

// TestSweepGridWorkloadMeshAxis: the workload/mesh-size grid axes expand
// into runnable CCN placement scenarios, and the invalid combinations
// fail validation loudly.
func TestSweepGridWorkloadMeshAxis(t *testing.T) {
	spec := SweepSpec{
		Fabrics: []FabricSpec{{Kind: KindCircuit}},
		Grid: &Grid{
			Workloads: []string{"drm", "hiperlan2,drm"},
			MeshSizes: []int{4, 8},
			Cycles:    []int{500},
		},
	}
	cells, err := spec.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 4 {
		t.Fatalf("cells = %d, want 4 (2 workload entries x 2 mesh sizes)", len(cells))
	}
	first := cells[0].Scenario
	if first.Name != "wl:drm/mesh=4/cycles=500" {
		t.Errorf("cell 0 name = %q", first.Name)
	}
	if first.MeshWidth != 4 || first.MeshHeight != 4 || !first.IsWorkload() {
		t.Errorf("cell 0 not a 4x4 workload scenario: %+v", first)
	}
	if got := cells[3].Scenario; got.MeshWidth != 8 || len(got.Workloads) != 2 {
		t.Errorf("cell 3 parameters not applied: %+v", got)
	}
	// The expanded scenarios actually run and carry per-node attribution.
	out, err := SweepAll(context.Background(), SweepSpec{
		Fabrics: []FabricSpec{{Kind: KindCircuit}},
		Grid:    &Grid{Workloads: []string{"drm"}, MeshSizes: []int{4}, Cycles: []int{500}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Error != "" || out[0].Result == nil {
		t.Fatalf("workload cell did not run: %+v", out[0])
	}
	if got := len(out[0].Result.PerComponent); got != 16 {
		t.Fatalf("per-component entries = %d, want 16 (one per node)", got)
	}

	// mesh_sizes without workloads is rejected.
	bad := SweepSpec{Grid: &Grid{MeshSizes: []int{8}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("mesh_sizes without workloads accepted")
	}
	// scenarios and workloads are mutually exclusive.
	bad = SweepSpec{Grid: &Grid{Scenarios: []string{"I"}, Workloads: []string{"drm"}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("grid scenarios+workloads accepted")
	}
	// An unknown application name fails at validation, not at run time.
	bad = SweepSpec{Grid: &Grid{Workloads: []string{"quantum"}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

// TestSweepCSVPerComponentColumn: the flattened attribution column is
// present, populated and deterministic.
func TestSweepCSVPerComponentColumn(t *testing.T) {
	spec := SweepSpec{
		Fabrics:   []FabricSpec{{Kind: KindCircuit}},
		Scenarios: []Scenario{{Name: "II", Streams: PaperStreams()[:1], Cycles: 300}},
	}
	var a, b bytes.Buffer
	if err := SweepCSV(context.Background(), spec, &a); err != nil {
		t.Fatal(err)
	}
	if err := SweepCSV(context.Background(), spec, &b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("CSV output not deterministic across runs")
	}
	rows, err := csv.NewReader(&a).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	col := -1
	for i, h := range rows[0] {
		if h == "power_components" {
			col = i
		}
	}
	if col < 0 {
		t.Fatalf("power_components column missing: %v", rows[0])
	}
	cell := rows[1][col]
	if !strings.Contains(cell, "clock=") || !strings.Contains(cell, "leakage=") {
		t.Fatalf("attribution cell malformed: %q", cell)
	}
}

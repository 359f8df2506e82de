package experiments

import (
	"bytes"
	"io"
	"math"
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	// DESIGN.md's per-experiment index.
	want := []string{
		"apps", "beload", "crossover", "fig10", "fig9", "fig9gated",
		"freqsweep", "lanes", "latency", "meshpower", "multicast",
		"psdepth", "schedule", "setup", "table1", "table2", "table3",
		"table4", "window",
	}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("registered %d experiments, want %d", len(all), len(want))
	}
	for i, e := range all {
		if e.ID != want[i] {
			t.Errorf("experiment %d = %q, want %q", i, e.ID, want[i])
		}
		if e.Title == "" || e.Paper == "" || e.Data == nil || e.Render == nil {
			t.Errorf("experiment %q incomplete", e.ID)
		}
	}
}

func TestLookup(t *testing.T) {
	if _, ok := Lookup("table4"); !ok {
		t.Fatal("table4 missing")
	}
	if _, ok := Lookup("nope"); ok {
		t.Fatal("phantom experiment")
	}
	if err := RunMany(io.Discard, []string{"nope"}, 1); err == nil {
		t.Fatal("RunMany accepted unknown id")
	}
}

func TestTablesRender(t *testing.T) {
	for id, fragments := range map[string][]string{
		"table1": {"640 Mb/s", "512 Mb/s", "416 Mb/s", "384 Mb/s", "72 Mb/s"},
		"table2": {"61.44", "7.68", "Scrambling", "~320"},
		"table3": {"Tile", "East", "North", "West", "Scenarios"},
		"table4": {"circuit switched", "packet switched", "Aethereal",
			"area ratio packet/circuit"},
	} {
		var buf bytes.Buffer
		if err := RunMany(&buf, []string{id}, 1); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		for _, f := range fragments {
			if !strings.Contains(buf.String(), f) {
				t.Errorf("%s output missing %q:\n%s", id, f, buf.String())
			}
		}
	}
}

func TestFig9ShapeChecks(t *testing.T) {
	bars, err := Fig9Data(Fig9Config{Cycles: 1500, FreqMHz: 25})
	if err != nil {
		t.Fatal(err)
	}
	if len(bars) != 8 {
		t.Fatalf("bars = %d, want 8 (2 routers x 4 scenarios)", len(bars))
	}
	var csTot, psTot float64
	for _, b := range bars {
		if b.Power.TotalUW() <= 0 {
			t.Fatalf("bar %s/%s empty", b.Router, b.Scenario)
		}
		if b.Router == "circuit" {
			csTot += b.Power.TotalUW()
		} else {
			psTot += b.Power.TotalUW()
		}
	}
	// The paper's headline: PS consumes ~3.5x more.
	ratio := psTot / csTot
	if ratio < 2.6 || ratio > 4.4 {
		t.Fatalf("power ratio %.2f, paper 3.5 (±25%%)", ratio)
	}
	// Offset domination: scenario I vs IV within 25% for both routers.
	for _, router := range []string{"circuit", "packet"} {
		var i1, i4 float64
		for _, b := range bars {
			if b.Router == router && b.Scenario == "I" {
				i1 = b.Power.DynamicUW()
			}
			if b.Router == router && b.Scenario == "IV" {
				i4 = b.Power.DynamicUW()
			}
		}
		if i4 <= i1 {
			t.Errorf("%s: scenario IV not above I", router)
		}
		if i1/i4 < 0.75 {
			t.Errorf("%s: offset not dominant (I/IV = %.2f)", router, i1/i4)
		}
	}
}

func TestFig10ShapeChecks(t *testing.T) {
	pts, err := Fig10Data(Fig9Config{Cycles: 1000, FreqMHz: 25})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 24 {
		t.Fatalf("points = %d, want 24", len(pts))
	}
	get := func(router, sc string, p float64) float64 {
		for _, pt := range pts {
			if pt.Router == router && pt.Scenario == sc && pt.FlipProb == p {
				return pt.UWPerMHz
			}
		}
		t.Fatalf("missing point %s/%s/%v", router, sc, p)
		return 0
	}
	// Bit flips have only minor influence: the 0%->100% swing stays below
	// 20% of the absolute level for every curve (Section 7.3).
	for _, router := range []string{"circuit", "packet"} {
		for _, sc := range []string{"I", "II", "III", "IV"} {
			lo, mid, hi := get(router, sc, 0), get(router, sc, 0.5), get(router, sc, 1)
			minV, maxV := lo, lo
			for _, v := range []float64{mid, hi} {
				if v < minV {
					minV = v
				}
				if v > maxV {
					maxV = v
				}
			}
			if (maxV-minV)/maxV > 0.2 {
				t.Errorf("%s/%s: flip sensitivity too large (%.2f..%.2f uW/MHz)",
					router, sc, minV, maxV)
			}
		}
	}
	// The packet-switched router sits well above the circuit-switched one
	// at every point.
	for _, sc := range []string{"I", "II", "III", "IV"} {
		if get("packet", sc, 0.5) < 2*get("circuit", sc, 0.5) {
			t.Errorf("scenario %s: packet router not clearly above circuit router", sc)
		}
	}
	// Scenario separation: more streams, more power (at 50% flips).
	for _, router := range []string{"circuit", "packet"} {
		prev := -1.0
		for _, sc := range []string{"I", "II", "III", "IV"} {
			v := get(router, sc, 0.5)
			if v < prev {
				t.Errorf("%s: scenario ordering violated at %s", router, sc)
			}
			prev = v
		}
	}
}

func TestWindowDataShape(t *testing.T) {
	pts, err := WindowData()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 5 {
		t.Fatalf("points = %d", len(pts))
	}
	// Throughput is non-decreasing in WC and reaches line rate (20 words
	// per 100 cycles) for large windows.
	for i := 1; i < len(pts); i++ {
		if pts[i].ThroughputWordsPer100+0.5 < pts[i-1].ThroughputWordsPer100 {
			t.Errorf("throughput decreased at WC=%d", pts[i].WC)
		}
	}
	last := pts[len(pts)-1]
	if last.ThroughputWordsPer100 < 19 {
		t.Errorf("WC=%d should reach line rate, got %.1f words/100cy",
			last.WC, last.ThroughputWordsPer100)
	}
	if pts[0].ThroughputWordsPer100 > 15 {
		t.Errorf("WC=1 should be round-trip limited, got %.1f words/100cy",
			pts[0].ThroughputWordsPer100)
	}
}

func TestSetupDataBudgets(t *testing.T) {
	r, err := SetupData(25)
	if err != nil {
		t.Fatal(err)
	}
	if r.PerLaneMS >= 1 {
		t.Errorf("per-lane config %.4f ms, paper budget 1 ms", r.PerLaneMS)
	}
	if r.FullRouterMS >= 20 {
		t.Errorf("full router %.4f ms, paper budget 20 ms", r.FullRouterMS)
	}
	if r.PathCommands != 14 { // 2 lanes × 7 hops of the 4x4 cross path
		t.Errorf("commands = %d, want 14", r.PathCommands)
	}
}

// TestBELoadShape checks the best-effort latency-throughput curve: five
// points in ascending load, mean latency that never falls as load rises,
// and below the knee a throughput that tracks the offered load (a
// 15/16 share of sends, since a node never addresses itself).
func TestBELoadShape(t *testing.T) {
	pts, err := BELoadData()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 5 {
		t.Fatalf("%d points, want 5", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].OfferedLoad <= pts[i-1].OfferedLoad {
			t.Fatalf("loads not ascending: %v then %v", pts[i-1].OfferedLoad, pts[i].OfferedLoad)
		}
		if pts[i].MeanLatency < pts[i-1].MeanLatency {
			t.Errorf("mean latency falls from %.1f to %.1f cycles as load rises to %v",
				pts[i-1].MeanLatency, pts[i].MeanLatency, pts[i].OfferedLoad)
		}
	}
	for _, p := range pts[:3] {
		want := p.OfferedLoad * 15 / 16 * 100
		if math.Abs(p.Throughput-want) > 0.05*want {
			t.Errorf("load %v: throughput %.2f msgs/node/100cy, want within 5%% of %.3f",
				p.OfferedLoad, p.Throughput, want)
		}
	}
}

func TestCrossoverAlwaysFavoursCircuit(t *testing.T) {
	pts, err := CrossoverData()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if p.CircuitNJPerWord <= 0 || p.PacketNJPerWord <= 0 {
			t.Fatalf("degenerate point %+v", p)
		}
		if p.PacketNJPerWord <= p.CircuitNJPerWord {
			t.Errorf("load %.2f: packet router cheaper per word — contradicts the paper", p.Load)
		}
	}
}

func TestRunManyMatchesSequentialByteForByte(t *testing.T) {
	ids := []string{"table3", "psdepth", "setup", "window", "table1"}
	var seq, par bytes.Buffer
	if err := RunMany(&seq, ids, 1); err != nil {
		t.Fatal(err)
	}
	if err := RunMany(&par, ids, 8); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seq.Bytes(), par.Bytes()) {
		t.Fatalf("8 workers' output differs from 1 worker's:\n--- 1 ---\n%s\n--- 8 ---\n%s",
			seq.String(), par.String())
	}
}

func TestRunManyUnknownID(t *testing.T) {
	var buf bytes.Buffer
	err := RunMany(&buf, []string{"table3", "nope"}, 2)
	if err == nil || err.Error() != `experiments: unknown experiment "nope"` {
		t.Fatalf("err = %v, want the unknown-experiment error", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("wrote %d bytes before failing on the unknown id", buf.Len())
	}
}

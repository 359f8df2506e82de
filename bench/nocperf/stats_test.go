package main

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	// Reference values from Python's statistics.quantiles(xs, n=4).
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{4, 2, 3, 1}, 1.25, 3.75},
		{[]float64{3, 1}, 0.5, 3.5},
		{[]float64{0.5, 0.4, 0.45, 0.47, 0.52}, 0.425, 0.51},
	} {
		q1, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, tc := range []struct {
		n    int
		pct  int
		v    float64
		want bool
	}{
		{100, 90, 90, true},
		{60, 80, 48, true},
		{50, 80, 40, true},
		{30, 60, 18, true},
		{20, 0, 0, false},
		{5, 0, 0, false},
	} {
		pct, v, ok := tailPercentile(seq(tc.n))
		if ok != tc.want || pct != tc.pct || v != tc.v {
			t.Errorf("n=%d: got p%d=%v ok=%v, want p%d=%v ok=%v", tc.n, pct, v, ok, tc.pct, tc.v, tc.want)
		}
		if ok {
			beyond := 0
			for _, x := range seq(tc.n) {
				if x > v {
					beyond++
				}
			}
			if beyond < 10 {
				t.Errorf("n=%d: only %d samples beyond p%d", tc.n, beyond, pct)
			}
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	base := []float64{1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.03, 0.97, 1.00, 1.01}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{0.7, 1.3, 0.8, 1.2, 1.0, 0.75, 1.25, 0.9, 1.1, 1.0}
	// Every run below the noisy base's fastest run, yet the median gap
	// stays inside the base's interquartile range.
	justBelow := scale(noisy, 0)
	for i := range justBelow {
		justBelow[i] = 0.69
	}
	for _, tc := range []struct {
		name          string
		base, changed []float64
		better        string
		want          string
	}{
		{"same runs", base, base, "lower", verdictUnchanged},
		{"within bound", base, scale(base, 1.05), "lower", verdictUnchanged},
		{"beyond bound", base, scale(base, 1.2), "lower", verdictWorse},
		{"clear gain", base, scale(base, 0.8), "lower", verdictImproved},
		{"gain on a higher-is-better metric", base, scale(base, 1.2), "higher", verdictImproved},
		{"loss on a higher-is-better metric", base, scale(base, 0.8), "higher", verdictWorse},
		{"spread wider than the bound", noisy, scale(noisy, 1.05), "lower", verdictUnresolved},
		{"noisy but every run better", noisy, justBelow, "lower", verdictUnchanged},
	} {
		got := compareRuns(tc.base, tc.changed, tc.better, 0.1)
		if got.Verdict != tc.want {
			t.Errorf("%s: verdict %s (wins %.2f), want %s", tc.name, got.Verdict, got.WinFrac, tc.want)
		}
	}
	// Ties count for neither side.
	if c := compareRuns(base, base, "lower", 0.1); c.WinFrac != 0 || c.Pairs != len(base) {
		t.Errorf("identical runs: wins %v over %d pairs", c.WinFrac, c.Pairs)
	}
}

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "root", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 40},
		{ID: 2, Parent: 0, Name: "b", Start: 30, End: 60}, // overlaps a
		{ID: 3, Parent: 1, Name: "leaf", Start: 15, End: 20},
		{ID: 4, Parent: 0, Name: "a", Start: 90, End: 120}, // runs past its parent
	}
	got := selfTimes(spans)
	want := []int64{100 - 50 - 10, 30 - 5, 30, 5, 30}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d self time %d, want %d", i, got[i], want[i])
		}
	}
	rows := selfTimeTable([]tracedPass{{Spans: spans}})
	if rows[0].Name != "a" || rows[0].Calls != 2 || rows[0].Self != 55 || rows[0].Total != 60 {
		t.Errorf("first row %+v, want a: 2 calls, self 55, total 60", rows[0])
	}
	if len(rows) != 4 {
		t.Errorf("%d rows, want one per span name", len(rows))
	}
}

func TestTracerNestsSpansAndWritesChromeTrace(t *testing.T) {
	tr := newTracer()
	outer := tr.begin("outer", "k", "v")
	inner := tr.begin("inner")
	inner()
	outer()
	if len(tr.spans) != 2 || tr.spans[1].Parent != 0 || tr.spans[0].Parent != -1 {
		t.Fatalf("spans %+v: want inner nested in outer", tr.spans)
	}
	var nilTracer *tracer
	if d := nilTracer.begin("x")(); d != 0 {
		t.Errorf("nil tracer reported %v", d)
	}
	var buf bytes.Buffer
	if err := writeChromeTrace(&buf, []tracedPass{{Label: "p", Spans: tr.spans}}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name, Ph string
			Pid      int
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 3 || doc.TraceEvents[0].Ph != "M" || doc.TraceEvents[2].Name != "inner" {
		t.Errorf("trace events %+v", doc.TraceEvents)
	}
}

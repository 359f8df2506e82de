package benchfmt

import (
	"regexp"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.70GHz
BenchmarkMeshSparseGatedKernel-8 	   20000	      1250 ns/op
BenchmarkMeshSparseNaiveKernel-8 	   20000	      5000 ns/op
BenchmarkPattern16x16EventKernel 	       5	   4200000 ns/op	 1024 B/op	      12 allocs/op
PASS
ok  	repro	1.234s
goos: linux
goarch: amd64
pkg: repro/internal/core
BenchmarkRouterStep-8 	 1000000	        95.5 ns/op
PASS
ok  	repro/internal/core	0.456s
`

func TestParse(t *testing.T) {
	f, err := Parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if f.Schema != Schema || f.Goos != "linux" || f.Goarch != "amd64" {
		t.Fatalf("header = %d/%q/%q", f.Schema, f.Goos, f.Goarch)
	}
	if len(f.Benchmarks) != 4 {
		t.Fatalf("got %d benchmarks, want 4", len(f.Benchmarks))
	}
	// Sorted by (pkg, name): repro before repro/internal/core.
	b := f.Benchmarks[0]
	if b.Pkg != "repro" || b.Name != "BenchmarkMeshSparseGatedKernel" ||
		b.Procs != 8 || b.Iterations != 20000 || b.NsPerOp != 1250 {
		t.Fatalf("benchmarks[0] = %+v", b)
	}
	pat := f.Benchmarks[2]
	if pat.Name != "BenchmarkPattern16x16EventKernel" || pat.Procs != 1 {
		t.Fatalf("no-suffix name parsed as %+v", pat)
	}
	if pat.BytesPerOp != 1024 || pat.AllocsPerOp != 12 {
		t.Fatalf("benchmem fields = %+v", pat)
	}
	if core := f.Benchmarks[3]; core.Pkg != "repro/internal/core" || core.NsPerOp != 95.5 {
		t.Fatalf("benchmarks[3] = %+v", core)
	}
}

func TestParseDedupKeepsBestMeasurement(t *testing.T) {
	// The CI log concatenates the 1x gating pass with the measured
	// pass; the higher-iteration line must win regardless of order.
	in := `pkg: repro
BenchmarkX-8 	   20000	      100 ns/op
BenchmarkX-8 	       1	     9999 ns/op
`
	f, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Benchmarks) != 1 || f.Benchmarks[0].NsPerOp != 100 {
		t.Fatalf("dedup kept %+v", f.Benchmarks)
	}
}

// TestParseDedupTieKeepsFastest: among lines with equal iteration
// counts — the repeats of a -count pass — the lowest ns/op wins in any
// order, so the Makefile's best-of-N passes gate their best sample.
func TestParseDedupTieKeepsFastest(t *testing.T) {
	for _, c := range []struct {
		name string
		in   string
		want float64
	}{
		{"best first", "BenchmarkX-2 20000 100 ns/op\nBenchmarkX-2 20000 300 ns/op\nBenchmarkX-2 20000 200 ns/op\n", 100},
		{"best middle", "BenchmarkX-2 20000 300 ns/op\nBenchmarkX-2 20000 100 ns/op\nBenchmarkX-2 20000 200 ns/op\n", 100},
		{"best last", "BenchmarkX-2 20000 300 ns/op\nBenchmarkX-2 20000 200 ns/op\nBenchmarkX-2 20000 100 ns/op\n", 100},
		{"more iterations beat faster", "BenchmarkX-2 20000 100 ns/op\nBenchmarkX-2 40000 300 ns/op\nBenchmarkX-2 1 50 ns/op\n", 300},
		{"1x pass then best-of-3", "BenchmarkX-2 1 9999 ns/op\nBenchmarkX-2 500 70 ns/op\nBenchmarkX-2 500 60 ns/op\nBenchmarkX-2 500 65 ns/op\n", 60},
	} {
		f, err := Parse(strings.NewReader(c.in))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(f.Benchmarks) != 1 || f.Benchmarks[0].NsPerOp != c.want {
			t.Errorf("%s: dedup kept %+v, want %v ns/op", c.name, f.Benchmarks, c.want)
		}
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	for _, in := range []string{
		"",                              // no benchmarks at all
		"BenchmarkX-8 \t nonsense\n",    // no iteration count
		"BenchmarkX-8 \t 10 \t 5 s\n",   // no ns/op
		"BenchmarkX-8 \t 10 \t ns/op\n", // value missing
	} {
		if _, err := Parse(strings.NewReader(in)); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", in)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f, err := Parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	b, err := f.Encode()
	if err != nil {
		t.Fatal(err)
	}
	g, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := g.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != string(b2) {
		t.Fatalf("round trip changed bytes:\n%s\nvs\n%s", b, b2)
	}
	if _, err := Decode([]byte(`{"schema":99,"benchmarks":[]}`)); err == nil {
		t.Fatal("future schema accepted")
	}
}

// file builds a canonical file from (name, ns/op) pairs in one package.
func file(entries map[string]float64) *File {
	f := &File{Schema: Schema}
	for name, ns := range entries {
		f.Benchmarks = append(f.Benchmarks, Benchmark{
			Pkg: "repro", Name: name, Procs: 8, Iterations: 100, NsPerOp: ns,
		})
	}
	return f
}

// TestCompareFailsOnRegression is the gate's synthetic fixture: a
// benchmark 20% slower than the tracked base must fail a 15% gate.
func TestCompareFailsOnRegression(t *testing.T) {
	base := file(map[string]float64{
		"BenchmarkMeshSparseGatedKernel": 1000,
		"BenchmarkSweepReplicated":       2000,
	})
	cur := file(map[string]float64{
		"BenchmarkMeshSparseGatedKernel": 1200, // +20%: regression
		"BenchmarkSweepReplicated":       2100, // +5%: fine
	})
	deltas, ok := Compare(base, cur, 0.15, nil)
	if ok {
		t.Fatal("gate passed a 20% regression")
	}
	if len(deltas) != 2 {
		t.Fatalf("got %d deltas, want 2", len(deltas))
	}
	var regressed, fine int
	for _, d := range deltas {
		if d.Regressed {
			regressed++
			if d.Name != "BenchmarkMeshSparseGatedKernel" {
				t.Fatalf("wrong benchmark flagged: %+v", d)
			}
		} else {
			fine++
		}
	}
	if regressed != 1 || fine != 1 {
		t.Fatalf("regressed=%d fine=%d", regressed, fine)
	}
}

func TestComparePassesWithinThreshold(t *testing.T) {
	base := file(map[string]float64{"BenchmarkA": 1000})
	cur := file(map[string]float64{"BenchmarkA": 1149}) // +14.9%
	if _, ok := Compare(base, cur, 0.15, nil); !ok {
		t.Fatal("gate failed a within-threshold delta")
	}
}

func TestCompareFailsOnMissingBenchmark(t *testing.T) {
	base := file(map[string]float64{"BenchmarkA": 1000, "BenchmarkB": 500})
	cur := file(map[string]float64{"BenchmarkA": 1000})
	deltas, ok := Compare(base, cur, 0.15, nil)
	if ok {
		t.Fatal("gate passed with a benchmark missing from the current run")
	}
	for _, d := range deltas {
		if d.Name == "BenchmarkB" && !d.Missing {
			t.Fatalf("missing benchmark not flagged: %+v", d)
		}
	}
}

func TestCompareFilter(t *testing.T) {
	base := file(map[string]float64{
		"BenchmarkMeshSparseGatedKernel": 1000,
		"BenchmarkTable1":                100,
	})
	cur := file(map[string]float64{
		"BenchmarkMeshSparseGatedKernel": 1000,
		"BenchmarkTable1":                900, // 9x slower, but unfiltered
	})
	deltas, ok := Compare(base, cur, 0.15, regexp.MustCompile(`Kernel|Sweep|Pattern`))
	if !ok {
		t.Fatal("filtered gate failed on an out-of-scope benchmark")
	}
	if len(deltas) != 1 || deltas[0].Name != "BenchmarkMeshSparseGatedKernel" {
		t.Fatalf("filter kept %+v", deltas)
	}
	// New benchmarks only in the current file never gate.
	cur2 := file(map[string]float64{
		"BenchmarkMeshSparseGatedKernel": 1000,
		"BenchmarkBrandNewKernel":        1,
	})
	if _, ok := Compare(base, cur2, 0.15, regexp.MustCompile(`Kernel`)); !ok {
		t.Fatal("a new current-only benchmark failed the gate")
	}
}

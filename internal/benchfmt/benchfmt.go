// Package benchfmt parses `go test -bench` text output into a
// canonical JSON benchmark file and compares two such files for
// throughput regressions. It backs cmd/benchdiff, the CI gate that
// keeps the simulator's benchmark trajectory tracked in-repo (the
// BENCH_<n>.json files) honest: a kernel/sweep/pattern benchmark whose
// ns/op grows past the threshold fails the build.
//
// The package is a measurement tool, not simulation state, so it sits
// outside the nocvet determinism scope like the cmd/ drivers; its own
// output is still deterministic (sorted, de-duplicated) so canonical
// files diff cleanly.
package benchfmt

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Schema is the canonical file's schema version; bump on incompatible
// layout changes so stale tracked files fail loudly.
const Schema = 1

// Benchmark is one measured benchmark in a canonical file.
type Benchmark struct {
	// Pkg is the import path the benchmark ran in (the `pkg:` header
	// line of the text output; empty when the output had none).
	Pkg string `json:"pkg,omitempty"`
	// Name is the benchmark name as printed, without the -procs
	// suffix (e.g. "BenchmarkMeshSparseGatedKernel" or
	// "BenchmarkX/case=3").
	Name string `json:"name"`
	// Procs is the GOMAXPROCS suffix; 1 when the output had none.
	Procs int `json:"procs"`
	// Iterations is the b.N the line reported.
	Iterations int64 `json:"iterations"`
	// NsPerOp is the headline metric the regression gate compares.
	NsPerOp float64 `json:"ns_per_op"`
	// BytesPerOp and AllocsPerOp are recorded when -benchmem was on.
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
}

// key identifies a benchmark for de-duplication and matching: the same
// name may run in different packages.
func (b Benchmark) key() string { return b.Pkg + "\x00" + b.Name }

// File is the canonical benchmark file, the unit cmd/benchdiff tracks
// and compares.
type File struct {
	// Schema is the layout version (the Schema constant).
	Schema int `json:"schema"`
	// Goos/Goarch echo the text output's header lines.
	Goos   string `json:"goos,omitempty"`
	Goarch string `json:"goarch,omitempty"`
	// Benchmarks is sorted by (pkg, name, procs) and de-duplicated:
	// when the same benchmark appears more than once in the input (the
	// gating 1x pass plus a focused measured pass), the occurrence
	// with the most iterations wins — the better measurement — and
	// among equal iteration counts (a -count pass) the lowest ns/op
	// wins, so a best-of-N pass yields its best line.
	Benchmarks []Benchmark `json:"benchmarks"`
}

// benchLine matches one result line: name, iteration count, then
// "value unit" pairs.
var benchLine = regexp.MustCompile(`^(Benchmark[^\s]*)\s+(\d+)\s+(.+)$`)

// Parse reads `go test -bench` text output (possibly several
// concatenated runs) and returns the canonical file. Non-benchmark
// lines (PASS, ok, test logs) are ignored; a malformed benchmark line
// is an error so a truncated bench log cannot silently gate nothing.
func Parse(r io.Reader) (*File, error) {
	f := &File{Schema: Schema}
	best := map[string]int{} // key -> index in f.Benchmarks
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		// JSON strings are UTF-8: the encoder silently rewrites invalid
		// bytes as replacement runes, so a retained line carrying them
		// would not survive a canonical round trip. Reject such lines up
		// front (a fuzzing find); lines the parser ignores may carry
		// anything.
		if !utf8.ValidString(line) &&
			(strings.HasPrefix(line, "Benchmark") ||
				strings.HasPrefix(line, "goos: ") ||
				strings.HasPrefix(line, "goarch: ") ||
				strings.HasPrefix(line, "pkg: ")) {
			return nil, fmt.Errorf("benchfmt: invalid UTF-8 in line %q", line)
		}
		switch {
		case strings.HasPrefix(line, "goos: "):
			f.Goos = strings.TrimPrefix(line, "goos: ")
			continue
		case strings.HasPrefix(line, "goarch: "):
			f.Goarch = strings.TrimPrefix(line, "goarch: ")
			continue
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimPrefix(line, "pkg: ")
			continue
		case !strings.HasPrefix(line, "Benchmark"):
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			return nil, fmt.Errorf("benchfmt: malformed benchmark line: %q", line)
		}
		b := Benchmark{Pkg: pkg, Name: m[1], Procs: 1}
		// Split the trailing -procs suffix off the printed name; a
		// sub-benchmark keeps its slashed path.
		if i := strings.LastIndex(b.Name, "-"); i >= 0 {
			if procs, err := strconv.Atoi(b.Name[i+1:]); err == nil && procs > 0 {
				b.Name, b.Procs = b.Name[:i], procs
			}
		}
		n, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("benchfmt: bad iteration count in %q: %v", line, err)
		}
		b.Iterations = n
		fields := strings.Fields(m[3])
		if len(fields)%2 != 0 || len(fields) == 0 {
			return nil, fmt.Errorf("benchfmt: malformed measurements in %q", line)
		}
		sawNs := false
		for i := 0; i < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchfmt: bad value in %q: %v", line, err)
			}
			// ParseFloat accepts NaN and ±Inf, which a real bench log
			// never contains and JSON cannot encode — reject them here so
			// every parsed file is encodable (a fuzzing find).
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("benchfmt: non-finite value in %q", line)
			}
			switch fields[i+1] {
			case "ns/op":
				b.NsPerOp, sawNs = v, true
			case "B/op":
				b.BytesPerOp = v
			case "allocs/op":
				b.AllocsPerOp = v
			}
		}
		if !sawNs {
			return nil, fmt.Errorf("benchfmt: no ns/op measurement in %q", line)
		}
		if j, ok := best[b.key()]; ok {
			if prior := f.Benchmarks[j]; b.Iterations > prior.Iterations ||
				b.Iterations == prior.Iterations && b.NsPerOp < prior.NsPerOp {
				f.Benchmarks[j] = b
			}
			continue
		}
		best[b.key()] = len(f.Benchmarks)
		f.Benchmarks = append(f.Benchmarks, b)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(f.Benchmarks) == 0 {
		return nil, fmt.Errorf("benchfmt: no benchmark lines in input")
	}
	sort.Slice(f.Benchmarks, func(i, j int) bool {
		a, b := f.Benchmarks[i], f.Benchmarks[j]
		if a.Pkg != b.Pkg {
			return a.Pkg < b.Pkg
		}
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		return a.Procs < b.Procs
	})
	return f, nil
}

// Encode renders the canonical file as indented JSON with a trailing
// newline, the exact bytes committed as BENCH_<n>.json.
func (f *File) Encode() ([]byte, error) {
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Decode parses a canonical file and checks its schema version.
func Decode(b []byte) (*File, error) {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var f File
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("benchfmt: %w", err)
	}
	if f.Schema != Schema {
		return nil, fmt.Errorf("benchfmt: schema %d, want %d (regenerate the tracked file)", f.Schema, Schema)
	}
	return &f, nil
}

// Delta is one benchmark's base→current comparison.
type Delta struct {
	// Pkg and Name identify the benchmark.
	Pkg  string
	Name string
	// BaseNs and CurNs are the two ns/op figures; CurNs is 0 when the
	// benchmark is missing from the current file.
	BaseNs float64
	CurNs  float64
	// Ratio is CurNs/BaseNs (0 when missing).
	Ratio float64
	// Missing marks a gated benchmark absent from the current file —
	// a gate failure, since a silently dropped benchmark is how a
	// regression escapes.
	Missing bool
	// Regressed marks a ratio past the threshold.
	Regressed bool
}

// Compare gates the current file against the base: every base
// benchmark whose name matches the filter (nil matches all) must be
// present in the current file with NsPerOp no more than (1+threshold)×
// the base figure. It returns one Delta per gated benchmark, sorted
// like the base file, and whether the gate passed. Benchmarks only in
// the current file are new and never gate.
func Compare(base, cur *File, threshold float64, filter *regexp.Regexp) ([]Delta, bool) {
	curIdx := map[string]Benchmark{}
	for _, b := range cur.Benchmarks {
		curIdx[b.key()] = b
	}
	var deltas []Delta
	ok := true
	for _, b := range base.Benchmarks {
		if filter != nil && !filter.MatchString(b.Name) {
			continue
		}
		d := Delta{Pkg: b.Pkg, Name: b.Name, BaseNs: b.NsPerOp}
		c, found := curIdx[b.key()]
		if !found {
			d.Missing = true
			ok = false
		} else {
			d.CurNs = c.NsPerOp
			if b.NsPerOp > 0 {
				d.Ratio = c.NsPerOp / b.NsPerOp
			}
			if d.Ratio > 1+threshold {
				d.Regressed = true
				ok = false
			}
		}
		deltas = append(deltas, d)
	}
	return deltas, ok
}

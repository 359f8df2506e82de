package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestParseFlags runs the command-line checks over a fresh flag set per
// case. A flag counts as given whenever it appears, whatever its value,
// so explicit zeros fail instead of silently running the defaults, and
// every error names the flag at fault.
func TestParseFlags(t *testing.T) {
	cases := []struct {
		args []string
		err  string // substring of the expected error; "" means accepted
	}{
		{nil, ""},
		{[]string{"-pattern", "uniform"}, ""},
		{[]string{"-pattern", "uniform", "-mesh", "4", "-cycles", "100"}, ""},
		{[]string{"-pattern", "uniform", "-mesh", "0"}, "-mesh must be positive, got 0"},
		{[]string{"-pattern", "uniform", "-mesh", "-3"}, "-mesh must be positive, got -3"},
		{[]string{"-pattern", "uniform", "-cycles", "0"}, "-cycles must be positive, got 0"},
		{[]string{"-pattern", "uniform", "-mesh", "8", "-cycles", "-1"}, "-cycles must be positive"},
		{[]string{"-mesh", "0"}, "-mesh"},
		{[]string{"-cycles", "0"}, "-cycles"},
		{[]string{"-inject", "poisson:0.1"}, "-inject"},
		{[]string{"-kernel", "naive"}, "-kernel"},
		{[]string{"-sweep", "s.json", "-kernel", "naive"}, ""},
		{[]string{"-sweep", "s.json", "-kernel", "gated"}, "gated"},
		{[]string{"-sweep", "s.json", "-kernel", "warp"}, "warp"},
		{[]string{"-kernel", "bogus"}, `-kernel: noc: unknown kernel "bogus"`},
		{[]string{"-reps", "0"}, "-reps"},
		{[]string{"-pattern", "uniform", "-reps", "-1"}, "-reps must be non-negative"},
		{[]string{"-warmup", "auto"}, "-warmup"},
		{[]string{"-cache", "dir"}, "-cache"},
		{[]string{"-sweep", "s.json", "-cache", ""}, "-cache"},
		{[]string{"-trace", "t.json"}, "-trace"},
		{[]string{"-progress"}, "-progress"},
		{[]string{"-metrics"}, "-metrics"},
		{[]string{"-pattern", "uniform", "-vcd", "q.vcd"}, "-vcd"},
		{[]string{"-run", "fig9", "extra"}, `"extra"`},
		{[]string{"-csv", "-run", "table3"}, "-csv only applies to -sweep runs"},
		{[]string{"-workers", "3", "-run", "table3"}, "-workers only applies to -sweep and -parallel runs"},
		{[]string{"-sweep", "s.json", "-json", "-run", "fig9", "-parallel"}, "only applies to experiment runs, not to -sweep"},
		{[]string{"-pattern", "uniform", "-mesh", "4", "-cycles", "50", "-csv", "-json", "-run", "fig9"}, "-csv"},
		{[]string{"-list", "-sweep", "s.json"}, "-list does not combine with -sweep"},
		{[]string{"-pattern", "uniform", "-json"}, "-json only applies to experiment runs, not to -pattern"},
		{[]string{"-vcd", "q.vcd", "-parallel"}, "-parallel only applies to experiment runs, not to -vcd"},
		{[]string{"-list", "-run", "fig9"}, "-run only applies to experiment runs, not to -list"},
		{[]string{"-sweep", "s.json", "-pattern", "uniform"}, "-sweep does not combine with -pattern"},
		{[]string{"-list"}, ""},
		{[]string{"-run", "table3", "-json", "-parallel", "-workers", "3"}, ""},
		{[]string{"-sweep", "s.json", "-csv", "-workers", "3"}, ""},
	}
	for _, c := range cases {
		fs := flag.NewFlagSet("nocbench", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		_, err := parseFlags(fs, c.args)
		switch {
		case c.err == "" && err != nil:
			t.Errorf("%q: unexpected error %v", c.args, err)
		case c.err != "" && err == nil:
			t.Errorf("%q: accepted, want an error naming %s", c.args, c.err)
		case c.err != "" && !strings.Contains(err.Error(), c.err):
			t.Errorf("%q: error %q does not contain %q", c.args, err, c.err)
		}
	}
}

// FuzzParseFlags feeds arbitrary argument lists, NUL-separated as in an
// argv block, to a fresh flag set with its output discarded. parseFlags
// must never panic; an error from fs.Parse passes through unchanged, and
// every other error starts with a -flag given on the command line or
// with "unexpected argument".
func FuzzParseFlags(f *testing.F) {
	for _, args := range []string{
		"",
		"-kernel\x00bogus",
		"-pattern\x00uniform\x00-mesh\x000",
		"-sweep\x00s.json\x00-kernel\x00naive\x00-reps\x00-1",
		"-mesh=4",
		"-run\x00fig9\x00extra",
		"-nope",
		"-h",
		"-list\x00-sweep\x00s.json\x00-json",
	} {
		f.Add(args)
	}
	f.Fuzz(func(t *testing.T, argv string) {
		var args []string
		if argv != "" {
			args = strings.Split(argv, "\x00")
		}
		ref := flag.NewFlagSet("nocbench", flag.ContinueOnError)
		ref.SetOutput(io.Discard)
		if _, err := parseFlags(ref, nil); err != nil {
			t.Fatalf("no arguments: %v", err)
		}
		parseErr := ref.Parse(args)
		given := map[string]bool{}
		ref.Visit(func(fl *flag.Flag) { given[fl.Name] = true })

		fs := flag.NewFlagSet("nocbench", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		_, err := parseFlags(fs, args)
		switch {
		case parseErr != nil:
			if err == nil || err.Error() != parseErr.Error() {
				t.Fatalf("%q: error %v, want the flag package's %v", args, err, parseErr)
			}
		case err == nil:
		case strings.HasPrefix(err.Error(), "unexpected argument "):
		default:
			name, _, _ := strings.Cut(strings.TrimPrefix(err.Error(), "-"), " ")
			name = strings.TrimSuffix(name, ":")
			if !strings.HasPrefix(err.Error(), "-") || !given[name] {
				t.Fatalf("%q: error %q does not start with a -flag given on the command line", args, err)
			}
		}
	})
}

// TestRunExperimentsUnknownIDWritesNothing: every -run id is looked up
// before anything is measured, so a bad id fails with nothing written,
// as text and as JSON.
func TestRunExperimentsUnknownIDWritesNothing(t *testing.T) {
	for _, jsonOut := range []bool{false, true} {
		var buf bytes.Buffer
		err := runExperiments(&buf, &cliFlags{runIDs: "table3,nope", jsonOut: jsonOut})
		if err == nil || err.Error() != `experiments: unknown experiment "nope"` {
			t.Errorf("json=%v: error %v, want the unknown-experiment error", jsonOut, err)
		}
		if buf.Len() != 0 {
			t.Errorf("json=%v: wrote %d bytes before failing:\n%s", jsonOut, buf.Len(), buf.String())
		}
	}
}

// TestRunExperimentsParallelSameBytes: -parallel changes only how many
// experiments are measured at once, never a byte of the text or JSON.
func TestRunExperimentsParallelSameBytes(t *testing.T) {
	for _, jsonOut := range []bool{false, true} {
		var seq, par bytes.Buffer
		if err := runExperiments(&seq, &cliFlags{runIDs: "table3, table1", jsonOut: jsonOut}); err != nil {
			t.Fatal(err)
		}
		if err := runExperiments(&par, &cliFlags{runIDs: "table3, table1", jsonOut: jsonOut, parallel: true, workers: 2}); err != nil {
			t.Fatal(err)
		}
		if seq.Len() == 0 || !bytes.Equal(seq.Bytes(), par.Bytes()) {
			t.Errorf("json=%v: -parallel output differs:\n--- sequential ---\n%s\n--- parallel ---\n%s",
				jsonOut, seq.String(), par.String())
		}
	}
}

// TestListHonoursOut: -list is one of the modes, so its listing goes
// through the same writer as every other mode's output: -out receives
// the bytes stdout gets.
func TestListHonoursOut(t *testing.T) {
	path := filepath.Join(t.TempDir(), "list.txt")
	fs := flag.NewFlagSet("nocbench", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	var stdout bytes.Buffer
	if err := run(fs, []string{"-list", "-out", path}, &stdout); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout.String(), "\nfig9 ") || !bytes.Equal(got, stdout.Bytes()) {
		t.Errorf("-list -out: file holds %q, stdout got %q", got, stdout.String())
	}
}

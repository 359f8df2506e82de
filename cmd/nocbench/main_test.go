package main

import (
	"flag"
	"io"
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

// Package experiments regenerates every table and figure of the paper's
// evaluation, plus the ablations DESIGN.md calls out. Each experiment is
// registered under the identifier used in DESIGN.md's per-experiment index
// (table1..table4, fig9, fig10, fig9gated, setup, lanes, window, apps,
// crossover, ...) and is split into two halves: a Data function that
// produces the experiment's typed result, and a Render function that
// formats that result as text. So
//
//	nocbench -run fig9
//
// prints the reproduction of Figure 9 next to the paper's reference
// values, while
//
//	nocbench -run fig9 -json
//
// emits the same result as structured JSON. The typed data behind each
// rendering is also available through exported functions for the
// benchmark harness and the tests.
package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"

	"repro/internal/stdcell"
	"repro/internal/sweep"
)

// Experiment is one reproducible artefact of the paper, split into a
// data-producing half and a rendering half so the same measurement can
// feed both the text reports and structured (JSON) output.
type Experiment struct {
	// ID is the identifier used by the CLI and DESIGN.md.
	ID string
	// Title describes the artefact.
	Title string
	// Paper cites the table/figure or section reproduced.
	Paper string
	// Data produces the experiment's typed result. The concrete type is
	// experiment specific (e.g. []Fig9Bar for fig9) and JSON-marshalable.
	Data func() (any, error)
	// Render formats a value previously produced by Data.
	Render func(w io.Writer, data any) error
}

var registry = map[string]Experiment{}

// register adds an experiment; duplicate IDs are a programming error.
func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic(fmt.Sprintf("experiments: duplicate id %q", e.ID))
	}
	if e.Data == nil || e.Render == nil {
		panic(fmt.Sprintf("experiments: %q lacks Data or Render", e.ID))
	}
	registry[e.ID] = e
}

// dataFrom adapts a typed data function to the registry's signature.
func dataFrom[T any](f func() (T, error)) func() (any, error) {
	return func() (any, error) { return f() }
}

// renderAs adapts a typed render function to the registry's signature.
func renderAs[T any](f func(io.Writer, T) error) func(io.Writer, any) error {
	return func(w io.Writer, data any) error {
		d, ok := data.(T)
		if !ok {
			return fmt.Errorf("experiments: render expected %T, got %T", d, data)
		}
		return f(w, d)
	}
}

// All returns the registered experiments sorted by ID.
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Lookup returns the experiment with the given ID.
func Lookup(id string) (Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// Run measures the given experiments on the sweep pool (workers <= 0
// means GOMAXPROCS, 1 measures them one after another) and hands each
// experiment and its data to emit in the order the ids were given. Every
// id is looked up before anything is measured, so an unknown id fails
// before emit sees anything. The worker bound applies to whole
// experiments; grid-shaped experiments additionally parallelize their
// own cells, so transient goroutine counts can exceed the bound (the
// extra goroutines are CPU-bound and cheap — Go's scheduler degrades
// gracefully under that oversubscription).
func Run(ids []string, workers int, emit func(e Experiment, data any) error) error {
	exps := make([]Experiment, len(ids))
	for i, id := range ids {
		e, ok := Lookup(id)
		if !ok {
			return fmt.Errorf("experiments: unknown experiment %q", id)
		}
		exps[i] = e
	}
	return sweep.Run(context.Background(), len(exps), workers, nil,
		func(_ context.Context, i int) (any, error) {
			data, err := exps[i].Data()
			if err != nil {
				return nil, fmt.Errorf("experiments: %s: %w", exps[i].ID, err)
			}
			return data, nil
		},
		func(i int, data any, err error) error {
			if err != nil {
				return err
			}
			return emit(exps[i], data)
		})
}

// RunMany measures the given experiments as Run does and renders each to
// w as text under its header, followed by a blank line. The bytes are
// the same for any worker count; only the wall-clock changes.
func RunMany(w io.Writer, ids []string, workers int) error {
	return Run(ids, workers, func(e Experiment, data any) error {
		fmt.Fprintf(w, "=== %s: %s (%s) ===\n", e.ID, e.Title, e.Paper)
		if err := e.Render(w, data); err != nil {
			return fmt.Errorf("experiments: %s: %w", e.ID, err)
		}
		fmt.Fprintln(w)
		return nil
	})
}

// lib is the shared technology library; all experiments price hardware
// with the same calibration point.
var lib = stdcell.Default013()

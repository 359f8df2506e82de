package noc

import (
	"context"
	"encoding/json"
	"io"

	"repro/internal/experiments"
	"repro/internal/sweep"
)

// Experiment describes one registered reproduction of a paper artefact
// (table, figure or ablation).
type Experiment struct {
	// ID is the identifier used by the CLI and DESIGN.md's index.
	ID string `json:"id"`
	// Title describes the artefact.
	Title string `json:"title"`
	// Paper cites the table/figure or section reproduced.
	Paper string `json:"paper"`
}

// Experiments lists every registered experiment, sorted by ID.
func Experiments() []Experiment {
	var out []Experiment
	for _, e := range experiments.All() {
		out = append(out, Experiment{ID: e.ID, Title: e.Title, Paper: e.Paper})
	}
	return out
}

// RunExperiment measures one experiment and renders it as text to w.
func RunExperiment(w io.Writer, id string) error {
	return experiments.RunOne(w, id)
}

// RunExperimentsParallel measures the given experiments concurrently on
// a bounded worker pool (workers <= 0 means GOMAXPROCS) and renders them
// to w in the given order. The text output is byte-identical to running
// RunExperiment over the ids sequentially; only the wall-clock changes.
func RunExperimentsParallel(w io.Writer, ids []string, workers int) error {
	return experiments.RunMany(w, ids, workers)
}

// ExperimentData measures one experiment and returns its typed,
// JSON-marshalable result (e.g. the eight power bars of fig9).
func ExperimentData(id string) (any, error) {
	return experiments.DataFor(id)
}

// ExperimentsJSON measures the given experiments on a bounded worker
// pool (workers <= 0 means GOMAXPROCS, 1 is sequential) and returns one
// JSON document per id, in the order the ids were given. The documents
// are identical to calling ExperimentJSON per id; only the wall-clock
// changes.
func ExperimentsJSON(ids []string, workers int) ([][]byte, error) {
	return sweep.Map(context.Background(), len(ids), workers, func(i int) ([]byte, error) {
		return ExperimentJSON(ids[i])
	})
}

// ExperimentJSON measures one experiment and returns its result as
// indented JSON, wrapped with the experiment's identity.
func ExperimentJSON(id string) ([]byte, error) {
	data, err := experiments.DataFor(id)
	if err != nil {
		return nil, err
	}
	e, _ := experiments.Lookup(id)
	return json.MarshalIndent(struct {
		ID    string `json:"id"`
		Title string `json:"title"`
		Paper string `json:"paper"`
		Data  any    `json:"data"`
	}{ID: e.ID, Title: e.Title, Paper: e.Paper, Data: data}, "", "  ")
}

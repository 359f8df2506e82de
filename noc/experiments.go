package noc

import (
	"encoding/json"
	"io"

	"repro/internal/experiments"
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
	return experiments.RunMany(w, []string{id}, 1)
}

// RunExperimentsParallel measures the given experiments on a bounded
// worker pool (workers <= 0 means GOMAXPROCS, 1 measures them one after
// another) and renders them to w in the given order. The text is the
// same for any worker count, and equals RunExperiment over the ids in
// turn; only the wall-clock changes. An unknown id fails before
// anything is written.
func RunExperimentsParallel(w io.Writer, ids []string, workers int) error {
	return experiments.RunMany(w, ids, workers)
}

// ExperimentsJSON measures the given experiments on a bounded worker
// pool (workers <= 0 means GOMAXPROCS, 1 measures them one after
// another) and returns one indented JSON document per id, in the order
// the ids were given: the experiment's identity and its typed result
// (e.g. the eight power bars of fig9) under "data". The documents are
// the same for any worker count, and all of them are measured before
// any is returned.
func ExperimentsJSON(ids []string, workers int) ([][]byte, error) {
	docs := make([][]byte, 0, len(ids))
	err := experiments.Run(ids, workers, func(e experiments.Experiment, data any) error {
		b, err := json.MarshalIndent(struct {
			Experiment
			Data any `json:"data"`
		}{Experiment{ID: e.ID, Title: e.Title, Paper: e.Paper}, data}, "", "  ")
		if err != nil {
			return err
		}
		docs = append(docs, b)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return docs, nil
}

// Command nocvet is the repo's custom vet tool: a go/analysis checker
// bundling the four determinism analyzers (nondeterm, maporder,
// evalpure, obspure). It speaks the go vet -vettool protocol via the
// x/tools unitchecker driver, so it is invoked through the go command,
// which supplies package facts and type information:
//
//	go build -o /tmp/nocvet ./cmd/nocvet
//	go vet -vettool=/tmp/nocvet ./...
//
// (or `make vet`). A finding is suppressed by a //nocvet:allow <analyzer>
// comment on the flagged line or the line above; see DESIGN.md "Static
// determinism contracts".
//
// The unitchecker driver cannot load packages standalone (that needs
// go/packages, outside the toolchain-vendored x/tools subset this repo
// builds against), so running nocvet without go vet prints usage and
// exits non-zero — same as the stock vet tool binaries.
package main

import (
	"golang.org/x/tools/go/analysis/unitchecker"

	"repro/internal/analysis/evalpure"
	"repro/internal/analysis/maporder"
	"repro/internal/analysis/nondeterm"
	"repro/internal/analysis/obspure"
)

func main() {
	unitchecker.Main(
		nondeterm.Analyzer,
		maporder.Analyzer,
		evalpure.Analyzer,
		obspure.Analyzer,
	)
}

package nocvet_test

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis/nocvet"
)

// TestKernelIfacesMatchSim type-checks internal/sim from source and
// asserts the synthesized nocvet.Kernel().Clocked has exactly the method
// set of sim.Clocked, so the structural matching evalpure relies on
// cannot silently drift from the real kernel contract.
func TestKernelIfacesMatchSim(t *testing.T) {
	fset := token.NewFileSet()
	dir := filepath.Join("..", "..", "sim")
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, e := range ents {
		if !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	pkg, err := conf.Check(nocvet.SimPath, fset, files, nil)
	if err != nil {
		t.Fatalf("type-checking internal/sim: %v", err)
	}

	obj := pkg.Scope().Lookup("Clocked")
	if obj == nil {
		t.Fatal("internal/sim no longer declares Clocked")
	}
	decl, ok := obj.Type().Underlying().(*types.Interface)
	if !ok {
		t.Fatal("sim.Clocked is no longer an interface")
	}
	declM := methodSet(decl)
	synthM := methodSet(nocvet.Kernel().Clocked)
	for m, sig := range declM {
		ssig, ok := synthM[m]
		if !ok {
			t.Errorf("sim.Clocked method %s missing from synthesized copy", m)
			continue
		}
		if !types.Identical(sig, ssig) {
			t.Errorf("sim.Clocked method %s signature mismatch: declared %s, synthesized %s", m, sig, ssig)
		}
		delete(synthM, m)
	}
	for m := range synthM {
		t.Errorf("synthesized Clocked has extra method %s", m)
	}
}

func methodSet(i *types.Interface) map[string]types.Type {
	out := make(map[string]types.Type, i.NumMethods())
	for j := 0; j < i.NumMethods(); j++ {
		m := i.Method(j)
		out[m.Name()] = m.Type()
	}
	return out
}

// TestSuppressionScope pins the scope list: the packages the paper's
// determinism claims cover must stay in scope, and driver/demo packages
// must stay out.
func TestSuppressionScope(t *testing.T) {
	for _, in := range []string{
		"repro/internal/sim", "repro/internal/core", "repro/internal/mesh",
		"repro/internal/pattern", "repro/internal/traffic", "repro/internal/packetsw",
		"repro/internal/aethereal", "repro/internal/power", "repro/internal/sweep",
		"repro/internal/benet", "repro/internal/bitvec", "repro/noc", "a",
	} {
		if !nocvet.InScope(in) {
			t.Errorf("InScope(%q) = false, want true", in)
		}
	}
	for _, out := range []string{
		"repro/internal/stats", "repro/cmd/nocbench", "repro/examples/quickstart",
		"fmt", "repro/internal/analysis/nocvet",
	} {
		if nocvet.InScope(out) {
			t.Errorf("InScope(%q) = true, want false", out)
		}
	}
}

// Package nondeterm implements the nocvet analyzer that flags sources of
// run-to-run nondeterminism inside simulation packages: wall-clock reads,
// the globally seeded math/rand generators, OS entropy, and crypto/rand.
//
// Every headline claim the repo makes — byte-identical results across the
// naive and production kernels, byte-identical sweep output for any worker
// count, float-exact idle-window replay — requires that the only
// randomness in simulation code flows from an explicit seed. The one
// sanctioned source is the value-type, seed-constructed
// bitvec.XorShift64 stream (nocvet.SanctionedRNG).
package nondeterm

import (
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"

	"repro/internal/analysis/nocvet"
)

// Analyzer flags wall-clock and global-RNG reads in simulation packages.
var Analyzer = &analysis.Analyzer{
	Name: "nondeterm",
	Doc: "flag wall-clock reads, global math/rand, and OS entropy in simulation packages\n\n" +
		"Simulation results must be a pure function of the scenario and its seed; " +
		"any time.Now, globally seeded rand call, or entropy read breaks byte-identical " +
		"replay. Use the seeded value-type PRNG in " + nocvet.SanctionedRNG + " instead. " +
		"Suppress an intentional use with //nocvet:allow nondeterm.",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

// denied maps package path -> function/variable name -> short reason.
// Global rand constructors that merely wrap an explicit caller-provided
// seed (rand.New, rand.NewSource, …) are allowed: the determinism sin is
// reading the process-global or entropy-seeded stream, not building a
// seeded one.
var denied = map[string]map[string]string{
	"time": {
		"Now": "wall-clock read", "Since": "wall-clock read", "Until": "wall-clock read",
		"After": "wall-clock timer", "AfterFunc": "wall-clock timer", "Tick": "wall-clock timer",
		"NewTicker": "wall-clock timer", "NewTimer": "wall-clock timer", "Sleep": "wall-clock stall",
	},
	"os": {
		"Getpid": "process entropy", "Getppid": "process entropy",
	},
	"crypto/rand": {
		"Read": "hardware entropy", "Reader": "hardware entropy", "Int": "hardware entropy",
		"Prime": "hardware entropy", "Text": "hardware entropy",
	},
}

// randConstructors are the package-level functions of math/rand and
// math/rand/v2 that construct explicitly seeded generators and are
// therefore allowed; every other package-level function reads the global
// (unseeded or entropy-seeded) stream and is denied.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

func run(pass *analysis.Pass) (interface{}, error) {
	if !nocvet.InScope(pass.Pkg.Path()) {
		return nil, nil
	}
	sup := nocvet.CollectSuppressions(pass)
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)

	ins.Preorder([]ast.Node{(*ast.SelectorExpr)(nil)}, func(n ast.Node) {
		sel := n.(*ast.SelectorExpr)
		obj := pass.TypesInfo.Uses[sel.Sel]
		if obj == nil || obj.Pkg() == nil {
			return
		}
		// Only package-level objects referenced through the package
		// qualifier (time.Now, rand.Intn, rand.Reader) are of interest;
		// methods and fields resolve to objects too, but their Pkg paths
		// never match the denylist of stdlib entropy packages.
		path, name := obj.Pkg().Path(), obj.Name()
		reason := ""
		switch path {
		case "math/rand", "math/rand/v2":
			if isGlobalFunc(obj) && !randConstructors[name] {
				reason = "globally seeded RNG"
			}
		default:
			reason = denied[path][name]
		}
		if reason == "" {
			return
		}
		nocvet.Report(pass, sup, sel.Pos(),
			"%s.%s: %s in simulation package breaks deterministic replay; use the seeded bitvec.XorShift64 (%s) or a cycle count instead",
			path, name, reason, nocvet.SanctionedRNG)
	})
	return nil, nil
}

// isGlobalFunc reports whether obj is a package-level function (not a
// method, so rng.Intn on an explicitly constructed *rand.Rand stays
// allowed).
func isGlobalFunc(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}

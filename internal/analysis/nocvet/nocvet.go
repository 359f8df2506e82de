// Package nocvet holds the shared infrastructure of the repo's custom
// go/analysis passes: the scope of "simulation packages" the determinism
// contracts apply to, the //nocvet:allow suppression mechanism, and small
// type-system helpers used by the individual analyzers.
//
// The four analyzers (nondeterm, maporder, evalpure, obspure) live in
// sibling packages and are wired into the cmd/nocvet vet tool. Each
// guards an invariant the repo's headline claims depend on:
//
//   - nondeterm: no wall-clock or global-RNG reads in simulation code, so
//     every run is byte-identical given the same seed.
//   - maporder: no order-sensitive output assembled from an unsorted map
//     iteration, so JSON/CSV encoders emit byte-identical bytes.
//   - evalpure: Eval never writes another component's state, the
//     two-phase discipline the kernels' skip and wake logic relies on.
//   - obspure: every tracer Emit is nil-guarded and observation blocks
//     only read state, so tracing and metrics never change results.
package nocvet

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
)

// SanctionedRNG is the import path of the only randomness source
// simulation code may use: the value-type, explicitly seeded
// bitvec.XorShift64 stream (and the FlipGen built on it). The nondeterm
// analyzer's allowlist is anchored on this single package; everything in
// time/math/rand/crypto/rand/os entropy is denied inside SimScope.
const SanctionedRNG = "repro/internal/bitvec"

// SimPath is the import path of the simulation kernel package whose
// two-phase Clocked contract evalpure enforces.
const SimPath = "repro/internal/sim"

// simPackages is the set of packages the determinism contracts apply to:
// everything that runs inside (or assembles the output of) a simulation.
// cmd/ and examples/ are deliberately out of scope — they are drivers and
// demos, not simulation state.
var simPackages = map[string]bool{
	"repro/internal/sim":       true,
	"repro/internal/core":      true,
	"repro/internal/mesh":      true,
	"repro/internal/pattern":   true,
	"repro/internal/traffic":   true,
	"repro/internal/packetsw":  true,
	"repro/internal/aethereal": true,
	"repro/internal/power":     true,
	"repro/internal/sweep":     true,
	"repro/internal/obs":       true,
	"repro/internal/benet":     true,
	"repro/internal/bitvec":    true,
	"repro/noc":                true,
}

// InScope reports whether the determinism contracts apply to the package
// with the given import path. The single-element path "a" used by the
// analyzer golden tests counts as in scope so testdata exercises the
// analyzers without a module prefix.
func InScope(path string) bool {
	if simPackages[path] {
		return true
	}
	return path == "a" || strings.HasPrefix(path, "a/")
}

// IsTestFile reports whether the file containing pos is a _test.go file.
// The analyzers skip test files: tests may legitimately use wall-clock
// timeouts, throwaway maps and mock components, and the byte-compare CI
// jobs cover what tests produce.
func IsTestFile(fset *token.FileSet, pos token.Pos) bool {
	f := fset.File(pos)
	return f != nil && strings.HasSuffix(f.Name(), "_test.go")
}

// AllowDirective is the comment prefix that suppresses a finding:
//
//	//nocvet:allow nondeterm
//	//nocvet:allow maporder,evalpure -- reason
//
// A directive suppresses the named analyzers' findings on its own line
// and on the line directly below it.
const AllowDirective = "nocvet:allow"

type suppKey struct {
	file string
	line int
	name string
}

// Suppressions indexes the //nocvet:allow directives of a pass's files.
type Suppressions struct {
	fset *token.FileSet
	keys map[suppKey]bool
}

// CollectSuppressions scans every comment of the pass's files for
// //nocvet:allow directives.
func CollectSuppressions(pass *analysis.Pass) *Suppressions {
	s := &Suppressions{fset: pass.Fset, keys: make(map[suppKey]bool)}
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, AllowDirective) {
					continue
				}
				rest := strings.TrimSpace(strings.TrimPrefix(text, AllowDirective))
				// Strip a trailing free-form reason after " -- ".
				if i := strings.Index(rest, "--"); i >= 0 {
					rest = strings.TrimSpace(rest[:i])
				}
				pos := pass.Fset.Position(c.Pos())
				for _, name := range strings.FieldsFunc(rest, func(r rune) bool {
					return r == ',' || r == ' ' || r == '\t'
				}) {
					s.keys[suppKey{pos.Filename, pos.Line, name}] = true
				}
			}
		}
	}
	return s
}

// Allowed reports whether analyzer name is suppressed at pos: a directive
// on the same line (trailing comment) or the line above.
func (s *Suppressions) Allowed(name string, pos token.Pos) bool {
	p := s.fset.Position(pos)
	return s.keys[suppKey{p.Filename, p.Line, name}] ||
		s.keys[suppKey{p.Filename, p.Line - 1, name}]
}

// Report emits a diagnostic unless it is suppressed or inside a test
// file.
func Report(pass *analysis.Pass, sup *Suppressions, pos token.Pos, format string, args ...interface{}) {
	if IsTestFile(pass.Fset, pos) || sup.Allowed(pass.Analyzer.Name, pos) {
		return
	}
	pass.Reportf(pos, format, args...)
}

// KernelIfaces holds structural copies of the sim kernel interfaces
// (repro/internal/sim) the analyzers read: Clocked, for evalpure.
// Matching component types against a synthesized copy instead of the
// declared interface applies the check to every in-scope package —
// components implement the kernel interfaces structurally and need not
// import sim at all. Method sets are what Go interfaces match on, so the
// copy is equivalent to the original; a test asserts it stays in sync.
type KernelIfaces struct {
	Clocked *types.Interface // Eval(); Commit()
}

// Kernel returns the synthesized kernel interfaces.
func Kernel() KernelIfaces {
	void := types.NewSignatureType(nil, nil, nil, nil, nil, false)
	clocked := types.NewInterfaceType([]*types.Func{
		types.NewFunc(token.NoPos, nil, "Eval", void),
		types.NewFunc(token.NoPos, nil, "Commit", void),
	}, nil)
	clocked.Complete()
	return KernelIfaces{Clocked: clocked}
}

// Implements reports whether T or *T implements iface.
func Implements(T types.Type, iface *types.Interface) bool {
	if iface == nil || T == nil {
		return false
	}
	return types.Implements(T, iface) || types.Implements(types.NewPointer(T), iface)
}

// EnclosingFunc returns the innermost function declaration or literal in
// the WithStack stack (excluding the node itself when it is one).
func EnclosingFunc(stack []ast.Node) ast.Node {
	for i := len(stack) - 2; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			return stack[i]
		}
	}
	return nil
}

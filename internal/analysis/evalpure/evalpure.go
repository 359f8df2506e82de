// Package evalpure implements the nocvet analyzer that enforces the
// two-phase Eval/Commit discipline mechanically: inside an Eval method,
// no assignment may write a field of another component or a wire it
// reaches through a pointer. Eval computes next state from the
// currently visible outputs of all components; only Commit may publish
// state. A cross-component write in Eval makes the result depend on
// component evaluation order — exactly the property the kernels must be
// able to assume never holds, since a skipped or parked component's
// missed Eval may run out of registration order when a wake revises its
// skip.
//
// The rules, for every assignment (including ++/-- and compound forms):
//
//   - If the left-hand side selects a struct field and the expression
//     being selected on has a type that implements sim.Clocked and is
//     not the method's own receiver, the write is flagged.
//   - If the left-hand side dereferences a pointer-typed struct field
//     (*d.slot = f, *p.valid = false), the write is flagged whoever
//     owns the field: such a field is a wire into another component —
//     the input register a feeder drives — and a register is latched in
//     Commit.
//
// Writes to the receiver's own fields (r.x = …), to non-component
// sub-structs (r.latch.v = …) and through local pointers stay allowed;
// mutations through the sanctioned staging-mutator calls (peer.Push(w),
// with sim.Waker wake-up) are method calls, not field writes, and are
// untouched.
package evalpure

import (
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"

	"repro/internal/analysis/nocvet"
)

// Analyzer flags cross-component field writes and writes through
// pointer fields inside Eval methods.
var Analyzer = &analysis.Analyzer{
	Name: "evalpure",
	Doc: "flag writes to another component's fields, or through a pointer field, from inside an Eval method\n\n" +
		"The two-phase kernel contract requires Eval to leave every externally visible " +
		"value unchanged; cross-component writes belong in Commit or behind a staging " +
		"mutator. Suppress with //nocvet:allow evalpure.",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	if !nocvet.InScope(pass.Pkg.Path()) {
		return nil, nil
	}
	clocked := nocvet.Kernel().Clocked
	sup := nocvet.CollectSuppressions(pass)
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)

	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		fd := n.(*ast.FuncDecl)
		recv := evalReceiver(pass, fd, clocked)
		if recv == nil {
			return
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range st.Lhs {
					checkWrite(pass, sup, clocked, recv, lhs)
				}
			case *ast.IncDecStmt:
				checkWrite(pass, sup, clocked, recv, st.X)
			}
			return true
		})
	})
	return nil, nil
}

// evalReceiver returns the receiver variable of fd when fd is the Eval()
// method of a type implementing sim.Clocked, else nil.
func evalReceiver(pass *analysis.Pass, fd *ast.FuncDecl, clocked *types.Interface) *types.Var {
	if fd.Name.Name != "Eval" || fd.Recv == nil || len(fd.Recv.List) != 1 || fd.Body == nil {
		return nil
	}
	if fd.Type.Params.NumFields() != 0 || fd.Type.Results.NumFields() != 0 {
		return nil
	}
	obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
	if !ok {
		return nil
	}
	sig := obj.Type().(*types.Signature)
	if sig.Recv() == nil || !nocvet.Implements(sig.Recv().Type(), clocked) {
		return nil
	}
	// Resolve the receiver variable the body's identifiers actually bind
	// to (the signature's Recv is a distinct object). An anonymous
	// receiver has no variable; the signature object then never matches,
	// which is correct — the body cannot reference the receiver at all.
	if names := fd.Recv.List[0].Names; len(names) == 1 {
		if v, ok := pass.TypesInfo.Defs[names[0]].(*types.Var); ok {
			return v
		}
	}
	return sig.Recv()
}

// checkWrite flags lhs when it dereferences a pointer-typed struct
// field, or when it is a field selection reached through a component
// expression other than the receiver itself. The whole base chain is
// walked so r.peer.Credit = 1, p.Credit = 1 (p := r.peer) and
// r.peer.latch.V = 1 are all caught, while r.x and r.latch.V stay
// allowed.
func checkWrite(pass *analysis.Pass, sup *nocvet.Suppressions, clocked *types.Interface, recv *types.Var, lhs ast.Expr) {
	if star, ok := ast.Unparen(lhs).(*ast.StarExpr); ok {
		if sel, ok := ast.Unparen(star.X).(*ast.SelectorExpr); ok {
			if s := pass.TypesInfo.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
				nocvet.Report(pass, sup, lhs.Pos(),
					"Eval writes through pointer field %s: a pointer field is a wire into another component, so latch the value in Commit",
					sel.Sel.Name)
			}
		}
		return
	}
	sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
	if !ok {
		return
	}
	if s := pass.TypesInfo.Selections[sel]; s == nil || s.Kind() != types.FieldVal {
		return
	}
	for e := ast.Expr(sel.X); ; {
		e = ast.Unparen(e)
		if t := pass.TypesInfo.TypeOf(e); t != nil && nocvet.Implements(deref(t), clocked) {
			if isReceiver(pass, e, recv) {
				return // write stays within the receiver's own state
			}
			nocvet.Report(pass, sup, lhs.Pos(),
				"Eval writes field %s of another component (%s): two-phase discipline requires Eval to stage state and Commit to publish it; move the write to Commit or use a staging mutator",
				sel.Sel.Name, types.TypeString(deref(t), types.RelativeTo(pass.Pkg)))
			return
		}
		switch x := e.(type) {
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return
		}
	}
}

// deref unwraps one level of pointer.
func deref(t types.Type) types.Type {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// isReceiver reports whether expr denotes the method's receiver variable
// itself (allowing parens and explicit dereference of a pointer
// receiver).
func isReceiver(pass *analysis.Pass, expr ast.Expr, recv *types.Var) bool {
	for {
		switch e := ast.Unparen(expr).(type) {
		case *ast.StarExpr:
			expr = e.X
		case *ast.Ident:
			return pass.TypesInfo.ObjectOf(e) == recv
		default:
			return false
		}
	}
}

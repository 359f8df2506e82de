// Package kernelcontract implements the nocvet analyzer that checks the
// sim.Clocked implementation matrix of every component type:
//
//   - A component implementing sim.Quiescer must also implement
//     sim.IdleWindower. The kernel replays every skipped cycle, every
//     fast-forwarded window and every parked stretch through IdleWindow,
//     so a quiescer without it either has no per-cycle bookkeeping — in
//     which case an explicit no-op IdleWindow documents that — or it has
//     some and silently desyncs power accounting whenever it is skipped.
//   - A component implementing sim.Timed must also implement
//     sim.Quiescer: the kernel only consults NextEvent on quiescent
//     components, so a non-quiescent Timed component blocks every
//     fast-forward it schedules and its events are never honoured.
//   - A component implementing sim.Sleeper must not implement sim.Timed:
//     an asleep Sleeper parks out of the sweep, the wake closure is its
//     only way back, and the kernel never reads a parked component's
//     NextEvent, so a self-scheduled event would be slept through.
//
// The checks apply to named non-interface types that implement
// sim.Clocked. Matching is structural (against synthesized copies of the
// kernel interfaces), so components are checked even in packages that
// never import sim directly.
package kernelcontract

import (
	"go/types"

	"golang.org/x/tools/go/analysis"

	"repro/internal/analysis/nocvet"
)

// Analyzer checks Quiescer/IdleWindower/Timed/Sleeper implementation
// consistency.
var Analyzer = &analysis.Analyzer{
	Name: "kernelcontract",
	Doc: "check sim.Clocked components implement consistent kernel contracts\n\n" +
		"sim.Quiescer without sim.IdleWindower desyncs idle bookkeeping whenever it " +
		"is skipped; sim.Timed without sim.Quiescer blocks every fast-forward it " +
		"schedules; a sim.Sleeper that is sim.Timed sleeps through its own events " +
		"while parked. Suppress with //nocvet:allow kernelcontract on the type declaration.",
	Run: run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	if !nocvet.InScope(pass.Pkg.Path()) {
		return nil, nil
	}
	k := nocvet.Kernel()
	sup := nocvet.CollectSuppressions(pass)

	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if ok && !tn.IsAlias() {
			checkType(pass, sup, tn, k)
		}
	}
	return nil, nil
}

func checkType(pass *analysis.Pass, sup *nocvet.Suppressions, tn *types.TypeName, k nocvet.KernelIfaces) {
	T := tn.Type()
	if _, isIface := T.Underlying().(*types.Interface); isIface {
		return
	}
	if !nocvet.Implements(T, k.Clocked) {
		return
	}
	if nocvet.Implements(T, k.Quiescer) && !nocvet.Implements(T, k.IdleWindower) {
		nocvet.Report(pass, sup, tn.Pos(),
			"%s implements sim.Quiescer but not sim.IdleWindower: idle bookkeeping desyncs whenever it is skipped (add an IdleWindow, a no-op one if the component has none)",
			tn.Name())
	}
	if nocvet.Implements(T, k.Timed) && !nocvet.Implements(T, k.Quiescer) {
		nocvet.Report(pass, sup, tn.Pos(),
			"%s implements sim.Timed but not sim.Quiescer: a non-quiescent Timed component blocks every fast-forward it schedules",
			tn.Name())
	}
	if nocvet.Implements(T, k.Sleeper) && nocvet.Implements(T, k.Timed) {
		nocvet.Report(pass, sup, tn.Pos(),
			"%s implements both sim.Sleeper and sim.Timed: the kernel never reads a parked component's NextEvent, so it would sleep through its own events",
			tn.Name())
	}
}

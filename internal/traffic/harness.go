package traffic

import (
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sim"
)

// circuitWorld is the world-building helper shared by the scenario runner
// (Figures 9/10) and the latency measurement: one circuit-switched
// assembly under the chosen kernel, plus feeder converters standing in for
// upstream routers' registered lane outputs.
type circuitWorld struct {
	// W is the simulation world; the assembly is its first component, so
	// stimulus added afterwards observes the documented Eval ordering.
	W *sim.World
	// A is the assembly under test.
	A *core.Assembly

	p core.Params
}

// newCircuitWorld builds an assembly and registers it with a fresh world
// constructed with the given options (typically sim.WithKernel).
func newCircuitWorld(p core.Params, opt core.AssemblyOptions, wopts ...sim.WorldOption) *circuitWorld {
	w := sim.NewWorld(wopts...)
	a := core.NewAssembly(p, opt)
	w.Add(a)
	return &circuitWorld{W: w, A: a, p: p}
}

// Feeder adds a transmit converter driving the given foreign input lane —
// the upstream router's output register for that lane. Its switching
// activity is charged to that upstream router, not to this assembly's
// meter, matching the single-router measurement setup of the paper.
func (cw *circuitWorld) Feeder(in core.LaneID) *core.TxConverter {
	tx := core.NewTxConverter(cw.p, core.FlowParams{})
	tx.SetEnabled(true)
	cw.A.R.ConnectIn(cw.p.Global(in), &tx.Out)
	cw.W.Add(tx)
	return tx
}

// Establish configures a circuit through the assembly and returns the
// transmit converter that feeds it: the assembly's own tile converter when
// the circuit enters at the tile port, or a fresh feeder otherwise.
func (cw *circuitWorld) Establish(c core.Circuit) (*core.TxConverter, error) {
	if err := cw.A.EstablishLocal(c); err != nil {
		return nil, err
	}
	if c.In.Port == core.Tile {
		return cw.A.Tx[c.In.Lane], nil
	}
	return cw.Feeder(c.In), nil
}

// sourceDriver pushes one stream's words into a transmit converter. It is
// a first-class component rather than a bare sim.Func so the
// activity-tracked kernel can retire it: once the word budget is exhausted
// the driver goes quiescent and the kernel stops visiting it. While words
// remain the driver runs every cycle — the load gate consumes one random
// draw per offer opportunity, and that RNG sequence is part of the
// byte-identical gated-vs-naive contract.
type sourceDriver struct {
	src   *Source
	tx    *core.TxConverter
	limit uint64 // emitted-word budget; 0 = unlimited

	// tracer, when non-nil, receives a domain-scope inject event per
	// pushed word on the track name. Words are pushed on the same cycles
	// under every kernel, so the stream is kernel-invariant. The tracer
	// may be shared with runs on other goroutines (a sweep's cells), so
	// it must accept concurrent calls.
	tracer obs.Tracer
	track  string
	cycle  uint64
}

// Eval implements sim.Clocked.
func (d *sourceDriver) Eval() {
	if d.done() {
		return
	}
	if d.tx.Ready() {
		if w, ok := d.src.Offer(); ok {
			d.tx.Push(w)
			if d.tracer != nil {
				d.tracer.Emit(obs.Event{Cycle: d.cycle, Track: d.track,
					Kind: obs.KindInject, Value: int64(d.src.Sent())})
			}
		}
	}
}

// Commit implements sim.Clocked.
func (d *sourceDriver) Commit() { d.cycle++ }

// TraceName implements sim.TraceNamer.
func (d *sourceDriver) TraceName() string { return d.track }

func (d *sourceDriver) done() bool {
	return d.limit > 0 && d.src.Sent() >= d.limit
}

// Quiescent implements sim.Quiescer: a source that has emitted all its
// words has no further work.
func (d *sourceDriver) Quiescent() bool { return d.done() }

// IdleWindow implements sim.Quiescer: a retired source accrues only
// its local clock, which exists to cycle-stamp trace events.
func (d *sourceDriver) IdleWindow(n uint64) { d.cycle += n }

// sinkDriver drains a receive converter on behalf of the tile: one Pop
// opportunity per cycle. A first-class component rather than a bare
// sim.Func so the kernel can skip it while the buffer is empty — Pop on
// an empty buffer is a no-op, so skipping is exact — which lets a fully
// drained world (retired sources, empty converters) quiesce end to end
// and fast-forward to the end of the run.
type sinkDriver struct {
	rx *core.RxConverter

	// tracer, when non-nil, receives a domain-scope deliver event per
	// popped word on the track name; deliveries happen on the same
	// cycles under every kernel, so the stream is kernel-invariant.
	tracer obs.Tracer
	track  string
	cycle  uint64
	popped uint64
}

// Eval implements sim.Clocked.
func (d *sinkDriver) Eval() {
	if _, ok := d.rx.Pop(); ok {
		d.popped++
		if d.tracer != nil {
			d.tracer.Emit(obs.Event{Cycle: d.cycle, Track: d.track,
				Kind: obs.KindDeliver, Value: int64(d.popped)})
		}
	}
}

// Commit implements sim.Clocked.
func (d *sinkDriver) Commit() { d.cycle++ }

// TraceName implements sim.TraceNamer.
func (d *sinkDriver) TraceName() string { return d.track }

// Quiescent implements sim.Quiescer: nothing buffered, nothing to pop.
func (d *sinkDriver) Quiescent() bool { return d.rx.Available() == 0 }

// IdleWindow implements sim.Quiescer: an empty sink accrues only its
// local clock, which exists to cycle-stamp trace events.
func (d *sinkDriver) IdleWindow(n uint64) { d.cycle += n }

var _ sim.Quiescer = (*sourceDriver)(nil)
var _ sim.Quiescer = (*sinkDriver)(nil)

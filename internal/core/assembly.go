package core

import (
	"fmt"
	"math/bits"

	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/stdcell"
)

// Assembly bundles one circuit-switched router with a full tile-interface
// data converter (one transmit and one receive converter per tile-port
// lane) and owns the per-cycle power accounting for the whole design. It is
// the unit the single-router experiments (Figures 9 and 10) and the mesh
// instantiate.
type Assembly struct {
	// R is the router.
	R *Router
	// Tx are the transmit converters, one per tile-port lane; Tx[i] feeds
	// the router's tile input lane i.
	Tx []*TxConverter
	// Rx are the receive converters, one per tile-port lane; Rx[i] watches
	// the router's tile output lane i.
	Rx []*RxConverter

	p     Params
	meter *power.Meter
	// lib is the library the gated clock energy is priced in, shared
	// with every assembly bound alongside; only gatedClockFJ reads it.
	lib   *stdcell.Lib
	gated bool

	// idle-cycle clock-energy cache for the activity-tracked kernel: the
	// gated per-cycle energy depends only on the configuration memory and
	// the converter enables. Commit refreshes it, and a converter's
	// SetEnabled drops it.
	idleFJ   float64
	idleFJOK bool

	// Converter masks, bit i for Tx[i] or Rx[i]. txOn and rxOn hold the
	// enables, kept by the converters' SetEnabled. txBusy holds the
	// transmit converters not at rest or whose ack wire is high; rxBusy
	// the receive converters not at rest or holding buffered words.
	// Commit refreshes both, and nothing else can change them: a
	// converter outside on|busy is disabled and at rest, refuses Push,
	// has nothing to Pop and ignores its lane, so it is Quiescent until
	// it is enabled or its ack wire rises. Eval, Commit and Quiescent
	// visit only the on|busy converters; txLive and rxLive are the ones
	// this cycle's Eval stepped, which Commit commits.
	txOn, rxOn, txBusy, rxBusy, txLive, rxLive uint64

	// asleep is the quiescence fast path: once an assembly is quiescent
	// AND self-stable — router unconfigured, every converter disabled —
	// no external register can influence it (an unconfigured crossbar
	// ignores its inputs, a disabled converter its lane), so the state
	// can only end through a wake. The flag turns the per-cycle poll of
	// the >80% idle routers of a sparse mesh into one boolean load.
	asleep bool
}

// AssemblyOptions configure an Assembly.
type AssemblyOptions struct {
	// Flow is the window-counter configuration of the converters.
	Flow FlowParams
	// RxBufCap is the destination buffer capacity in words.
	RxBufCap int
}

// DefaultAssemblyOptions returns the options used by the paper-shaped
// experiments: blocking flow control with WC=8, X=4, and a destination
// buffer that exactly fits the window.
func DefaultAssemblyOptions() AssemblyOptions {
	f := DefaultFlow()
	return AssemblyOptions{Flow: f, RxBufCap: f.WC}
}

// NewAssembly builds a router plus converters and wires the tile port.
func NewAssembly(p Params, opt AssemblyOptions) *Assembly {
	return NewAssemblies(1, p, opt)[0]
}

// NewAssemblies builds n assemblies, each a router plus converters with
// its tile port wired. Every kind of state is allocated once for all n:
// the assemblies, the routers and their state (see newRouters), the
// transmit and receive converters and the two converter pointer tables.
// Each assembly's tables are carved with cap == len, so no append can
// spill into a neighbour's.
func NewAssemblies(n int, p Params, opt AssemblyOptions) []*Assembly {
	rs := newRouters(n, p)
	l := p.LanesPerPort
	txs := newTxConverters(n*l, p, opt.Flow)
	rxs := newRxConverters(n*l, p, opt.Flow, opt.RxBufCap)
	txp := make([]*TxConverter, n*l)
	rxp := make([]*RxConverter, n*l)
	as := make([]Assembly, n)
	out := make([]*Assembly, n)
	for i := range as {
		a := &as[i]
		a.R, a.Tx, a.Rx, a.p = &rs[i], carve(txp, i, l), carve(rxp, i, l), p
		for lane := range a.Tx {
			tx, rx := &txs[i*l+lane], &rxs[i*l+lane]
			tx.asm, tx.lane = a, uint8(lane)
			rx.asm, rx.lane = a, uint8(lane)
			g := p.Global(LaneID{Port: Tile, Lane: lane})
			a.R.ConnectIn(g, &tx.Out)
			tx.ConnectAck(&a.R.AckOut[g])
			rx.ConnectIn(&a.R.Out[g])
			a.R.ConnectAckIn(g, &rx.AckOut)
			a.Tx[lane], a.Rx[lane] = tx, rx
		}
		out[i] = a
	}
	return out
}

// Params returns the assembly's design parameters.
func (a *Assembly) Params() Params { return a.p }

// BindMeter attaches a power meter covering the router and its converters.
// The design the meter was created with should be Netlist(p, *lib) so
// that the ungated clock energy matches the register census. With gated
// true the assembly models the configuration-driven clock gating of
// Section 7.3, priced in *lib, which must not change while bound; a mesh
// binds all its assemblies to one library.
func (a *Assembly) BindMeter(m *power.Meter, lib *stdcell.Lib, gated bool) {
	a.meter = m
	a.lib = lib
	a.gated = gated
	a.R.BindMeter(m)
	for _, tx := range a.Tx {
		tx.BindMeter(m)
	}
	for _, rx := range a.Rx {
		rx.BindMeter(m)
	}
}

// EstablishLocal configures a circuit through this router and enables the
// converters it terminates at, if any. It is the single-router counterpart
// of the CCN's path configuration.
func (a *Assembly) EstablishLocal(c Circuit) error {
	if err := a.R.Configure(c); err != nil {
		return err
	}
	if c.In.Port == Tile {
		a.Tx[c.In.Lane].SetEnabled(true)
	}
	if c.Out.Port == Tile {
		a.Rx[c.Out.Lane].SetEnabled(true)
	}
	return nil
}

// setEnabled records converter lane's enable in mask (txOn or rxOn) and
// drops the idle clock-energy cache, which depends on it.
func (a *Assembly) setEnabled(mask *uint64, lane uint8, on bool) {
	if on {
		*mask |= 1 << uint(lane)
	} else {
		*mask &^= 1 << uint(lane)
	}
	a.idleFJOK = false
}

// Eval implements sim.Clocked. Only the enabled or busy converters are
// stepped: any other one is disabled and at rest, so its Eval and
// Commit would change nothing and charge no toggles, and it stays so
// until the cycle ends. Enables are written between cycles, as the CCN
// and the lane book do.
func (a *Assembly) Eval() {
	a.R.Eval()
	a.txLive, a.rxLive = a.txOn|a.txBusy, a.rxOn|a.rxBusy
	for m := a.txLive; m != 0; m &= m - 1 {
		a.Tx[bits.TrailingZeros64(m)].Eval()
	}
	for m := a.rxLive; m != 0; m &= m - 1 {
		a.Rx[bits.TrailingZeros64(m)].Eval()
	}
}

// Commit implements sim.Clocked. After all sub-components commit, the
// assembly refreshes its busy masks and charges this cycle's clock
// energy to the meter: the full design when ungated, or only the
// configuration memory, enabled lanes and enabled converters when gated.
// A receive converter the tile pops from holds buffered words, so it is
// busy and was stepped by Eval.
func (a *Assembly) Commit() {
	var txBusy, rxBusy uint64
	for m := a.txLive; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		tx := a.Tx[i]
		tx.Commit()
		if !tx.atRest() {
			txBusy |= 1 << uint(i)
		}
	}
	for m := a.rxLive; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		rx := a.Rx[i]
		rx.Commit()
		if !rx.atRest() || len(rx.buf) != 0 {
			rxBusy |= 1 << uint(i)
		}
	}
	a.R.Commit()
	a.txBusy, a.rxBusy = txBusy|a.R.tileAck, rxBusy
	if a.meter == nil {
		return
	}
	if !a.gated {
		a.meter.Tick()
		return
	}
	e := a.gatedClockFJ()
	a.idleFJ, a.idleFJOK = e, true
	a.meter.TickGated(e)
}

// gatedClockFJ returns the clock energy one cycle draws under the
// configuration-driven gating of Section 7.3. A disabled converter
// draws none, so only the enabled ones are summed, in lane order.
func (a *Assembly) gatedClockFJ() float64 {
	e := a.R.ClockFJ(*a.lib, true)
	for m := a.txOn; m != 0; m &= m - 1 {
		e += a.Tx[bits.TrailingZeros64(m)].ClockFJ(*a.lib, true)
	}
	for m := a.rxOn; m != 0; m &= m - 1 {
		e += a.Rx[bits.TrailingZeros64(m)].ClockFJ(*a.lib, true)
	}
	return e
}

// SetWake implements sim.Waker, forwarding the wake to the router and the
// converters: a configuration write, a pushed word or a tile-side pop on
// any sub-component re-activates the whole assembly and ends any asleep
// fast path.
func (a *Assembly) SetWake(fn func()) {
	wake := func() {
		a.asleep = false
		if fn != nil {
			fn()
		}
	}
	a.R.SetWake(wake)
	for _, tx := range a.Tx {
		tx.SetWake(wake)
	}
	for _, rx := range a.Rx {
		rx.SetWake(wake)
	}
}

// Quiescent implements sim.Quiescer: the assembly is skippable only when
// the router and every converter are individually at rest. Converters
// outside the on|busy masks are Quiescent, so only the others are
// asked. The per-cycle meter tick a skipped cycle still owes is
// reproduced by IdleWindow.
func (a *Assembly) Quiescent() bool {
	if a.asleep {
		return true
	}
	if !a.R.Quiescent() {
		return false
	}
	for m := a.txOn | a.txBusy; m != 0; m &= m - 1 {
		if !a.Tx[bits.TrailingZeros64(m)].Quiescent() {
			return false
		}
	}
	for m := a.rxOn | a.rxBusy; m != 0; m &= m - 1 {
		if !a.Rx[bits.TrailingZeros64(m)].Quiescent() {
			return false
		}
	}
	// Latch the fast path only when the quiescence cannot be ended by an
	// external register: with no circuit configured the crossbar ignores
	// its inputs, and a disabled converter ignores its lane and ack
	// wires. Any enabled converter (or configured lane) keeps the full
	// poll, since upstream traffic or acks could arrive on any cycle.
	if a.R.Unconfigured() && a.txOn|a.rxOn == 0 {
		a.asleep = true
	}
	return true
}

// Asleep implements sim.Sleeper, exposing the latched fast path: while
// asleep the unconfigured crossbar and disabled converters ignore every
// input register, so only a staging mutator — which runs the wake
// closure and clears the latch — can end the assembly's quiescence. The
// active kernel parks asleep assemblies; committing neighbours need not
// (and do not) wake them.
func (a *Assembly) Asleep() bool { return a.asleep }

// IdleWindow implements sim.Quiescer: each skipped cycle charges
// exactly the clock energy an active-but-idle cycle would have charged —
// the full clock network ungated, or the cached configuration-dependent
// share when gated, recomputed when the cache was dropped. n skipped
// cycles charge n times that energy in one O(1) meter extension — the
// meter's run-length accounting makes the batch bit-identical to n
// single cycles, so the kernel can fast-forward whole idle windows
// across this assembly.
func (a *Assembly) IdleWindow(n uint64) {
	if a.meter == nil {
		return
	}
	if !a.gated {
		a.meter.TickN(n)
		return
	}
	if !a.idleFJOK {
		a.idleFJ, a.idleFJOK = a.gatedClockFJ(), true
	}
	a.meter.TickGatedN(a.idleFJ, n)
}

// VerifyClockCensus checks that the netlist design used for the meter
// agrees with the behavioural register census — the consistency contract
// between the area model and the power model. It returns an error
// describing any mismatch.
func VerifyClockCensus(p Params, lib stdcell.Lib) error {
	d := Netlist(p, lib)
	var behavioural float64 = power.ClockEnergyFor(lib, RouterRegBits(p)+ConverterRegBits(p), 0)
	structural := d.ClockEnergyPerCycle(lib)
	if diff := structural - behavioural; diff < 0 || diff > 0.2*behavioural {
		return fmt.Errorf("core: structural clock energy %.1f fJ vs behavioural %.1f fJ",
			structural, behavioural)
	}
	return nil
}

var _ sim.Clocked = (*Assembly)(nil)
var _ sim.Clocked = (*Router)(nil)
var _ sim.Clocked = (*TxConverter)(nil)
var _ sim.Clocked = (*RxConverter)(nil)

var _ sim.Sleeper = (*Assembly)(nil)
var _ sim.Quiescer = (*Router)(nil)
var _ sim.Quiescer = (*TxConverter)(nil)
var _ sim.Quiescer = (*RxConverter)(nil)

var _ sim.Waker = (*Router)(nil)
var _ sim.Waker = (*TxConverter)(nil)
var _ sim.Waker = (*RxConverter)(nil)

package core

import (
	"math"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/power"
	"repro/internal/stdcell"
)

// FuzzAssemblyStep drives a production Assembly and a refAssembly (the
// per-lane router and every-converter step, kept in step_ref_test.go)
// through the same generated run and requires identical registers,
// converter state, quiescence, toggle counts and power report on every
// cycle. It also requires the production assembly's enable masks to
// match the converters' enables, and every converter outside its
// on|busy masks to be disabled, Quiescent and, on the receive side,
// empty: the property that lets the assembly visit only the converters
// inside them.
//
// The input's first five bytes pick the geometry — 2 to 6 ports, 1 to
// 16 lanes per port, so lane totals that are not multiples of 8 and,
// above 8 lanes, a tile port spanning two words — the flow control, the
// destination buffer, clock gating and the seed of the wire data. Each
// further byte is one cycle's operation bits (opConfig and the rest),
// some followed by their operands; a cycle may stage configuration
// writes, flip a converter's enable through SetEnabled between cycles,
// drive new input and acknowledgement wires, and push and pop tile
// words before or after the assembly's Eval, as a tile component
// registered before or after it would. On odd cycles without tile
// operations a quiescent assembly is skipped as the kernel skips it:
// IdleWindow(1) against the reference's own meter tick. Twenty idle
// cycles follow the input so that words in flight drain; bytes past
// maxStepInput are not read.
func FuzzAssemblyStep(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAssemblyStep(t, data)
	})
}

// The bits of one cycle's operation byte.
const (
	opConfig  = 1 << 0 // stage 1–3 configuration writes
	opEnable  = 1 << 1 // set one converter's enable
	opInputs  = 1 << 2 // drive new values on the foreign input lanes
	opAcks    = 1 << 3 // drive new acknowledgements on the foreign output lanes
	opPush    = 1 << 4 // push a word into every ready transmit converter
	opPushAft = 1 << 5 // ... after the assembly's Eval instead of before
	opPop     = 1 << 6 // pop a word from every receive converter
	opPopAft  = 1 << 7 // ... after the assembly's Eval instead of before
)

// fuzzBytes reads a fuzz input byte by byte; past its end it reads 0.
type fuzzBytes struct {
	b []byte
	i int
}

func (r *fuzzBytes) next() byte {
	if r.i >= len(r.b) {
		return 0
	}
	r.i++
	return r.b[r.i-1]
}

func (r *fuzzBytes) left() int { return len(r.b) - r.i }

// maxStepInput bounds the bytes a fuzz input is read for: the mutator
// grows inputs towards a megabyte, and every byte is a cycle.
const maxStepInput = 2048

func checkAssemblyStep(t *testing.T, data []byte) {
	rd := &fuzzBytes{b: data[:min(len(data), maxStepInput)]}
	p := Params{Ports: 2 + int(rd.next())%5, LanesPerPort: 1 + int(rd.next())%16,
		LaneWidth: 4, TileWidth: 16}
	fl := rd.next()
	flow := FlowParams{UseAck: fl&0x80 == 0, WC: 1 + int(fl&7)}
	flow.X = 1 + int(fl>>3&7)%flow.WC
	bb := rd.next()
	opt := AssemblyOptions{Flow: flow, RxBufCap: 1 + int(bb&7)}
	gated := bb&0x80 != 0
	rng := bitvec.NewXorShift64(uint64(rd.next()) + 1)

	lib := stdcell.Default013()
	n, lanes := p.TotalLanes(), p.LanesPerPort
	a, ref := NewAssembly(p, opt), newRefAssembly(p, opt)
	am := power.NewMeter(Netlist(p, lib), lib, 25)
	rm := power.NewMeter(Netlist(p, lib), lib, 25)
	a.BindMeter(am, &lib, gated)
	ref.BindMeter(rm, lib, gated)
	a.SetWake(nil)
	ref.SetWake(nil)

	// Both routers read the same foreign input and acknowledgement
	// wires; the tile lanes are wired to each assembly's converters.
	inputs := make([]uint8, n)
	acks := make([]bool, n)
	for g := lanes; g < n; g++ {
		a.R.ConnectIn(g, &inputs[g])
		ref.R.ConnectIn(g, &inputs[g])
		a.R.ConnectAckIn(g, &acks[g])
		ref.R.ConnectAckIn(g, &acks[g])
	}

	tile := func(after bool, op byte) {
		if op&opPush != 0 && (op&opPushAft != 0) == after {
			for i := range a.Tx {
				w := DataWord(rng.Uint16())
				if got, want := a.Tx[i].Push(w), ref.Tx[i].Push(w); got != want {
					t.Fatalf("Tx[%d].Push = %v, reference %v", i, got, want)
				}
			}
		}
		if op&opPop != 0 && (op&opPopAft != 0) == after {
			for i := range a.Rx {
				gw, gok := a.Rx[i].Pop()
				ww, wok := ref.Rx[i].Pop()
				if gw != ww || gok != wok {
					t.Fatalf("Rx[%d].Pop = %v,%v, reference %v,%v", i, gw, gok, ww, wok)
				}
			}
		}
	}

	for cycle, idle := 0, 0; idle < 20; cycle++ {
		if rd.left() == 0 {
			idle++
		}
		op := rd.next()
		// Between cycles: configuration writes, enable flips, wires.
		if op&opConfig != 0 {
			for k := 1 + int(rd.next())%3; k > 0; k-- {
				kind, g, rel := rd.next(), int(rd.next())%n, int(rd.next())%p.ForeignLanes()
				switch kind % 4 {
				case 0, 1:
					cmd := ConfigCmd{Out: g, Sel: LaneSel{Enable: true, In: rel}}
					a.R.PushConfig(cmd)
					ref.R.PushConfig(cmd)
				case 2: // disabled, with a select left in the memory image
					cmd := ConfigCmd{Out: g, Sel: LaneSel{In: rel}}
					a.R.PushConfig(cmd)
					ref.R.PushConfig(cmd)
				default:
					a.R.Deactivate(p.LaneOf(g))
					ref.R.Deactivate(p.LaneOf(g))
				}
			}
		}
		if op&opEnable != 0 {
			b := rd.next()
			i, on := int(b>>2)%lanes, b&2 != 0
			if b&1 == 0 {
				a.Tx[i].SetEnabled(on)
				ref.Tx[i].SetEnabled(on)
			} else {
				a.Rx[i].SetEnabled(on)
				ref.Rx[i].SetEnabled(on)
			}
		}
		if op&opInputs != 0 {
			for g := lanes; g < n; g++ {
				inputs[g] = 0
				if rng.Bool(0.5) {
					inputs[g] = uint8(rng.Uint64())
				}
			}
		}
		if op&opAcks != 0 {
			for g := lanes; g < n; g++ {
				acks[g] = rng.Bool(0.3)
			}
		}

		checkMasks(t, cycle, a)
		if got, want := a.R.Quiescent(), ref.R.Quiescent(); got != want {
			t.Fatalf("cycle %d: Router.Quiescent = %v, reference %v", cycle, got, want)
		}
		quiet := a.Quiescent()
		if want := ref.Quiescent(); quiet != want {
			t.Fatalf("cycle %d: Assembly.Quiescent = %v, reference %v", cycle, quiet, want)
		}
		if quiet && cycle%2 == 1 && op&(opPush|opPop) == 0 {
			a.IdleWindow(1)
			refIdleCycle(ref)
		} else {
			tile(false, op)
			a.Eval()
			ref.Eval()
			tile(true, op)
			a.Commit()
			ref.Commit()
		}

		compareAssemblies(t, cycle, a, ref, am, rm)
	}
}

// checkMasks fails the test if the assembly's enable masks disagree
// with its converters' enables, or if a converter outside its on|busy
// masks is not Quiescent or is a receive converter holding words a tile
// could pop.
func checkMasks(t *testing.T, cycle int, a *Assembly) {
	t.Helper()
	for i, tx := range a.Tx {
		on, busy := a.txOn>>uint(i)&1 == 1, a.txBusy>>uint(i)&1 == 1
		if on != tx.Enabled() || !on && !busy && !tx.Quiescent() {
			t.Fatalf("cycle %d: Tx[%d] enabled %v, quiescent %v, in masks on %v busy %v",
				cycle, i, tx.Enabled(), tx.Quiescent(), on, busy)
		}
	}
	for i, rx := range a.Rx {
		on, busy := a.rxOn>>uint(i)&1 == 1, a.rxBusy>>uint(i)&1 == 1
		if on != rx.Enabled() || !on && !busy && (!rx.Quiescent() || rx.Available() != 0) {
			t.Fatalf("cycle %d: Rx[%d] enabled %v, quiescent %v, holds %d words, in masks on %v busy %v",
				cycle, i, rx.Enabled(), rx.Quiescent(), rx.Available(), on, busy)
		}
	}
}

// refIdleCycle charges the reference a skipped cycle's meter tick, as
// its Commit would.
func refIdleCycle(ref *refAssembly) {
	if ref.meter == nil {
		return
	}
	if !ref.gated {
		ref.meter.Tick()
		return
	}
	ref.meter.TickGated(ref.gatedClockFJ())
}

// compareAssemblies fails the test at the first register, converter
// statistic, toggle count or power figure in which the production
// assembly differs from the reference.
func compareAssemblies(t *testing.T, cycle int, a *Assembly, ref *refAssembly, am, rm *power.Meter) {
	t.Helper()
	for g := range ref.R.Out {
		if a.R.Out[g] != ref.R.Out[g] || a.R.AckOut[g] != ref.R.AckOut[g] {
			t.Fatalf("cycle %d lane %d: out %#x ack %v, reference %#x %v",
				cycle, g, a.R.Out[g], a.R.AckOut[g], ref.R.Out[g], ref.R.AckOut[g])
		}
	}
	for i, tx := range ref.Tx {
		got := [5]uint64{uint64(a.Tx[i].Out), uint64(a.Tx[i].Window()), a.Tx[i].Sent(), a.Tx[i].Stalled(),
			boolBit(a.Tx[i].Quiescent())}
		want := [5]uint64{uint64(tx.Out), uint64(tx.Window()), tx.Sent(), tx.Stalled(), boolBit(tx.Quiescent())}
		if got != want {
			t.Fatalf("cycle %d Tx[%d]: out/window/sent/stalled/quiescent %v, reference %v", cycle, i, got, want)
		}
	}
	for i, rx := range ref.Rx {
		got := [4]uint64{boolBit(a.Rx[i].AckOut), a.Rx[i].Received(), uint64(a.Rx[i].Available()),
			boolBit(a.Rx[i].Quiescent())}
		want := [4]uint64{boolBit(rx.AckOut), rx.Received(), uint64(rx.Available()), boolBit(rx.Quiescent())}
		if got != want {
			t.Fatalf("cycle %d Rx[%d]: ack/received/available/quiescent %v, reference %v", cycle, i, got, want)
		}
	}
	for _, k := range []power.ToggleKind{power.ToggleReg, power.ToggleGate, power.ToggleLink, power.ToggleBufBit} {
		if got, want := am.Toggles(k), rm.Toggles(k); got != want {
			t.Fatalf("cycle %d: %v toggles %d, reference %d", cycle, k, got, want)
		}
	}
	g, w := am.Report("step"), rm.Report("step")
	got := [4]uint64{g.Cycles, math.Float64bits(g.StaticUW), math.Float64bits(g.InternalUW), math.Float64bits(g.SwitchingUW)}
	want := [4]uint64{w.Cycles, math.Float64bits(w.StaticUW), math.Float64bits(w.InternalUW), math.Float64bits(w.SwitchingUW)}
	if got != want {
		t.Fatalf("cycle %d: report %+v, reference %+v", cycle, g, w)
	}
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

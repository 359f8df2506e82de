package packetsw

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/power"
	"repro/internal/stdcell"
)

// FuzzRouterStep drives a production Router and a refRouter (the step
// that visits every input VC and credit wire, kept in step_ref_test.go)
// through the same generated run and requires identical output and
// credit registers, FIFO contents, credits, fault counters, drained
// flits, quiescence, wake calls and meter toggles on every cycle.
//
// The input's first five bytes pick the router — 2 to 6 ports, 1 to 8
// VCs, FIFO depth 1 to 8 — whether a meter is bound, whether the tile
// port is fed through its input register or through Inject, which output
// ports get a credit wire, and the seed of a 16-entry route table (valid
// ports mixed with routes outside [0, Ports); a route equal to a head's
// input port is a U-turn) and of the flit data. Each further byte is one
// cycle's operation bits (opInputs and the rest), some followed by their
// operands. Twenty cycles with idle wires follow the input; bytes past
// maxStepInput are not read.
func FuzzRouterStep(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		checkRouterStep(t, data)
	})
}

// TestRouterStepMatchesReference runs FuzzRouterStep's check on random
// inputs of every shape and requires that they reach the paths around
// the bit masks: U-turns and routes off the router, FIFO overflow,
// credit returns beyond the depth, idle windows and drained flits.
func TestRouterStepMatchesReference(t *testing.T) {
	var total stepStats
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		data := make([]byte, 5+rng.Intn(400))
		rng.Read(data)
		st := checkRouterStep(t, data)
		total.grants += st.grants
		total.uturns += st.uturns
		total.outside += st.outside
		total.dropped += st.dropped
		total.violations += st.violations
		total.idle += st.idle
		total.drained += st.drained
	}
	if total.grants == 0 || total.uturns == 0 || total.outside == 0 || total.dropped == 0 ||
		total.violations == 0 || total.idle == 0 || total.drained == 0 {
		t.Fatalf("traffic too thin to test the step: %+v", total)
	}
}

// The bits of one cycle's operation byte.
const (
	opInputs   = 1 << 0 // drive flits on the wired input ports, one operand byte each
	opCredits  = 1 << 1 // pulse the credit wires, one operand byte each
	opInject   = 1 << 2 // Inject 1–3 tile flits, one operand byte each after a count byte
	opInjAft   = 1 << 3 // ... after the routers' Eval instead of before
	opDrain    = 1 << 4 // Drain both routers
	opIdle     = 1 << 5 // skip 1–16 cycles through IdleWindow if both routers are quiescent
	opOverflow = 1 << 6 // offer single-flit packets to full FIFOs, which drop them
)

// stepStats counts what a checked run exercised.
type stepStats struct {
	grants, uturns, outside, idle, drained int
	dropped, violations                    uint64
}

// stepBytes reads a fuzz input byte by byte; past its end it reads 0.
type stepBytes struct {
	b []byte
	i int
}

func (r *stepBytes) next() byte {
	if r.i >= len(r.b) {
		return 0
	}
	r.i++
	return r.b[r.i-1]
}

func (r *stepBytes) left() int { return len(r.b) - r.i }

// maxStepInput bounds the bytes a fuzz input is read for: the mutator
// grows inputs towards a megabyte, and every byte is a cycle.
const maxStepInput = 2048

func checkRouterStep(t *testing.T, data []byte) stepStats {
	t.Helper()
	var st stepStats
	rd := &stepBytes{b: data[:min(len(data), maxStepInput)]}
	p := Params{Ports: 2 + int(rd.next())%5, VCs: 1 + int(rd.next())%8,
		Depth: 1 + int(rd.next())%8, PhitBits: 16}
	flags := rd.next()
	metered, tileWired := flags&1 != 0, flags&2 != 0
	rng := bitvec.NewXorShift64(uint64(rd.next()) + 1)

	var routes [16]core.Port
	for i := range routes {
		if rng.Intn(8) == 0 {
			routes[i] = core.Port(rng.Intn(9) - 1) // -1..7: PortRoute's reach and below
		} else {
			routes[i] = core.Port(rng.Intn(p.Ports))
		}
	}
	route := func(d uint16) core.Port { return routes[d&15] }
	r, ref := NewRouter(p, route), newRefRouter(p, route)
	var rm, refm *power.Meter
	if metered {
		lib := stdcell.Default013()
		rm = power.NewMeter(Netlist(p, lib), lib, 25)
		refm = power.NewMeter(Netlist(p, lib), lib, 25)
		r.BindMeter(rm)
		ref.BindMeter(refm)
	}
	var wakes, refWakes int
	r.SetWake(func() { wakes++ })
	ref.SetWake(func() { refWakes++ })

	// Both routers read the same input wires. Credits arrive on one word
	// per wired output for the router and on one bool per VC for the
	// reference; the word may carry bits above the router's VCs.
	in := make([]Flit, p.Ports)
	wiredIn := make([]bool, p.Ports)
	for port := range in {
		if core.Port(port) != core.Tile || tileWired {
			wiredIn[port] = true
			r.ConnectIn(core.Port(port), &in[port])
			ref.ConnectIn(core.Port(port), &in[port])
		}
	}
	word := make([]uint64, p.Ports)
	pulse := make([][]bool, p.Ports)
	wiredCredit := make([]bool, p.Ports)
	for o := range word {
		pulse[o] = make([]bool, p.VCs)
		if wiredCredit[o] = flags>>(2+o%6)&1 != 0; wiredCredit[o] {
			r.ConnectCreditIn(core.Port(o), &word[o])
			for v := range pulse[o] {
				ref.ConnectCreditIn(core.Port(o), v, &pulse[o][v])
			}
		}
	}

	// headData returns a head's route field for input port in: any table
	// entry one time in 64, else one that leaves by another port of the
	// router, so a head that waits for ever (and the VC behind it) stays
	// rare.
	headData := func(in int) uint16 {
		d := uint16(rng.Uint64())
		if rng.Intn(64) == 0 {
			return d
		}
		for k := 0; k < len(routes); k++ {
			if dst := int(routes[(d+uint16(k))&15]); dst != in && dst >= 0 && dst < p.Ports {
				return d&^15 | (d+uint16(k))&15
			}
		}
		return d
	}
	// left counts the flits still to send of each input VC's open packet,
	// so every VC carries whole packets in order.
	left := make([]int, p.InputVCs())
	nextFlit := func(idx, vc int, b byte) Flit {
		f := Flit{VC: vc, Data: uint16(rng.Uint64())}
		switch {
		case left[idx] > 1:
			f.Kind = Body
		case left[idx] == 1:
			f.Kind = Tail
		case b>>5&3 == 0:
			f.Kind = HeadTail
		default:
			f.Kind = Head
		}
		if f.Kind.Opens() {
			f.Data = headData(idx / p.VCs)
		}
		return f
	}
	sent := func(idx int, f Flit, b byte) {
		switch f.Kind {
		case Head:
			left[idx] = int(b >> 5 & 3)
		case Body, Tail:
			left[idx]--
		}
	}
	inject := func() {
		for k := 1 + int(rd.next())%3; k > 0; k-- {
			b := rd.next()
			vc := int(b) % p.VCs
			idx := int(core.Tile)*p.VCs + vc
			f := nextFlit(idx, vc, b)
			got, want := r.Inject(f), ref.Inject(f)
			if got != want {
				t.Fatalf("Inject(%+v) = %v, reference %v", f, got, want)
			}
			if got {
				sent(idx, f, b)
			}
		}
	}

	var prev, prevCopy []Flit // the router's last Drain and what it held
	drain := func(cycle int) {
		if !slices.Equal(prev, prevCopy) {
			t.Fatalf("cycle %d: last Drain's flits changed before the next call: %v, were %v",
				cycle, prev, prevCopy)
		}
		got, want := r.Drain(), ref.Drain()
		if !slices.Equal(got, want) {
			t.Fatalf("cycle %d: Drain = %v, reference %v", cycle, got, want)
		}
		st.drained += len(got)
		prev, prevCopy = got, slices.Clone(got)
	}

	for cycle, idle := 0, 0; idle < 20; cycle++ {
		if rd.left() == 0 {
			idle++
		}
		op := rd.next()
		for port := range in {
			in[port] = Flit{}
			if !wiredIn[port] || op&opInputs == 0 {
				continue
			}
			b := rd.next()
			if b&1 == 0 {
				continue
			}
			vc := int(b>>1) % p.VCs
			idx := port*p.VCs + vc
			f := nextFlit(idx, vc, b)
			if r.InputBacklog(core.Port(port), vc) >= p.Depth {
				if op&opOverflow == 0 || f.Kind != HeadTail {
					continue
				}
			}
			in[port] = f
			sent(idx, f, b)
		}
		for o := range word {
			word[o] = 0
			if wiredCredit[o] && op&opCredits != 0 {
				word[o] = uint64(rd.next())
			}
			for v := range pulse[o] {
				pulse[o][v] = word[o]>>v&1 != 0
			}
		}
		for idx := range r.fifos {
			port := idx / p.VCs
			if q := r.fifo(port, idx%p.VCs); q.n > 0 && q.front().Kind.Opens() {
				switch dst := int(r.Route(q.front().Data)); {
				case dst == port:
					st.uturns++
				case dst < 0 || dst >= p.Ports:
					st.outside++
				}
			}
		}

		quiet := r.Quiescent()
		if want := ref.Quiescent(); quiet != want {
			t.Fatalf("cycle %d: Quiescent = %v, reference %v", cycle, quiet, want)
		}
		// An idle window's length is read whether or not the window is
		// taken, so the input's byte layout does not hang on router state.
		// A cycle that injects is never skipped.
		if op&opIdle != 0 {
			n := 1 + uint64(rd.next()%16)
			if quiet && (op&opInject == 0 || tileWired) {
				r.IdleWindow(n)
				ref.IdleWindow(n)
				st.idle++
				compareRouters(t, cycle, r, ref, rm, refm)
				continue
			}
		}
		if op&opInject != 0 && op&opInjAft == 0 && !tileWired {
			inject()
		}
		r.Eval()
		ref.Eval()
		if op&opInject != 0 && op&opInjAft != 0 && !tileWired {
			inject()
		}
		st.grants += len(r.pops)
		r.Commit()
		ref.Commit()
		if op&opDrain != 0 {
			drain(cycle)
		}
		if wakes != refWakes {
			t.Fatalf("cycle %d: %d wake calls, reference %d", cycle, wakes, refWakes)
		}
		compareRouters(t, cycle, r, ref, rm, refm)
	}
	drain(-1)
	st.dropped, st.violations = r.Dropped(), r.CreditViolations()
	return st
}

// compareRouters fails the test at the first register, FIFO, credit,
// counter, toggle count or power figure in which the production router
// differs from the reference.
func compareRouters(t *testing.T, cycle int, r *Router, ref *refRouter, rm, refm *power.Meter) {
	t.Helper()
	p := r.P
	if !slices.Equal(r.Out, ref.Out) {
		t.Fatalf("cycle %d: Out %v, reference %v", cycle, r.Out, ref.Out)
	}
	for o, w := range r.CreditOut {
		for v := 0; v < 64; v++ {
			want := v < p.VCs && ref.CreditOut[o][v]
			if got := w>>v&1 != 0; got != want {
				t.Fatalf("cycle %d: CreditOut[%d] %#x, reference %v", cycle, o, w, ref.CreditOut[o])
			}
		}
	}
	for idx := range ref.fifos {
		a, b := &r.fifos[idx], &ref.fifos[idx]
		if a.n != b.n {
			t.Fatalf("cycle %d: FIFO %d holds %d flits, reference %d", cycle, idx, a.n, b.n)
		}
		for k := 0; k < a.n; k++ {
			fa, fb := a.buf[(a.head+k)%len(a.buf)], b.buf[(b.head+k)%len(b.buf)]
			if fa != fb {
				t.Fatalf("cycle %d: FIFO %d slot %d %+v, reference %+v", cycle, idx, k, fa, fb)
			}
		}
		if occ := r.occupied[idx/p.VCs]>>(idx%p.VCs)&1 != 0; occ != (a.n > 0) {
			t.Fatalf("cycle %d: FIFO %d occupied bit %v with %d flits", cycle, idx, occ, a.n)
		}
	}
	for o := range ref.credits {
		if !slices.Equal(r.credits[o], ref.credits[o]) || !slices.Equal(r.outOwner[o], ref.outOwner[o]) {
			t.Fatalf("cycle %d: output %d credits %v owners %v, reference %v %v",
				cycle, o, r.credits[o], r.outOwner[o], ref.credits[o], ref.outOwner[o])
		}
	}
	got := [5]uint64{r.Dropped(), r.CreditViolations(), uint64(r.EjectedPending()), r.Cycle(), uint64(r.buffered)}
	want := [5]uint64{ref.Dropped(), ref.CreditViolations(), uint64(ref.EjectedPending()), ref.Cycle(), uint64(ref.buffered)}
	if got != want {
		t.Fatalf("cycle %d: dropped/violations/ejected/cycle/buffered %v, reference %v", cycle, got, want)
	}
	if rm == nil {
		return
	}
	for _, k := range []power.ToggleKind{power.ToggleReg, power.ToggleGate, power.ToggleLink, power.ToggleBufBit} {
		if got, want := rm.Toggles(k), refm.Toggles(k); got != want {
			t.Fatalf("cycle %d: %v toggles %d, reference %d", cycle, k, got, want)
		}
	}
	g, w := rm.Report("step"), refm.Report("step")
	gb := [4]uint64{g.Cycles, math.Float64bits(g.StaticUW), math.Float64bits(g.InternalUW), math.Float64bits(g.SwitchingUW)}
	wb := [4]uint64{w.Cycles, math.Float64bits(w.StaticUW), math.Float64bits(w.InternalUW), math.Float64bits(w.SwitchingUW)}
	if gb != wb {
		t.Fatalf("cycle %d: report %+v, reference %+v", cycle, g, w)
	}
}

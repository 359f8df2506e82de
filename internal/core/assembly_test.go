package core

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/stdcell"
)

// pair builds two assemblies A→B connected East(A)↔West(B), with a circuit
// from A's tile lane 0 to B's tile lane 0 — the smallest full network:
// converter, router, link, router, converter.
func pair(t *testing.T) (a, b *Assembly, w *sim.World) {
	t.Helper()
	p := DefaultParams()
	opt := DefaultAssemblyOptions()
	a, b = NewAssembly(p, opt), NewAssembly(p, opt)
	// Wire all East(A) → West(B) lanes and the reverse acks, and the
	// symmetric West(B) → East(A) direction.
	for l := 0; l < p.LanesPerPort; l++ {
		ae := p.Global(LaneID{Port: East, Lane: l})
		bw := p.Global(LaneID{Port: West, Lane: l})
		b.R.ConnectIn(bw, &a.R.Out[ae])
		a.R.ConnectAckIn(ae, &b.R.AckOut[bw])
		a.R.ConnectIn(ae, &b.R.Out[bw])
		b.R.ConnectAckIn(bw, &a.R.AckOut[ae])
	}
	if err := a.EstablishLocal(Circuit{In: LaneID{Port: Tile, Lane: 0}, Out: LaneID{Port: East, Lane: 0}}); err != nil {
		t.Fatal(err)
	}
	if err := b.EstablishLocal(Circuit{In: LaneID{Port: West, Lane: 0}, Out: LaneID{Port: Tile, Lane: 0}}); err != nil {
		t.Fatal(err)
	}
	w = sim.NewWorld()
	w.Add(a, b)
	w.Step() // configuration edge
	return a, b, w
}

func TestEndToEndTileToTile(t *testing.T) {
	a, b, w := pair(t)
	const total = 50
	var got []Word
	pushed := 0
	w.Add(&sim.Func{OnEval: func() {
		if pushed < total && a.Tx[0].Ready() {
			if a.Tx[0].Push(DataWord(uint16(pushed * 3))) {
				pushed++
			}
		}
		if wd, ok := b.Rx[0].Pop(); ok {
			got = append(got, wd)
		}
	}})
	if !w.RunUntil(func() bool { return len(got) == total }, 5000) {
		t.Fatalf("received %d/%d words", len(got), total)
	}
	for i, wd := range got {
		if wd.Data != uint16(i*3) {
			t.Fatalf("word %d = %v, out of order", i, wd)
		}
	}
	if b.Rx[0].Dropped() != 0 {
		t.Fatalf("dropped %d", b.Rx[0].Dropped())
	}
	if a.Tx[0].WindowViolations() != 0 {
		t.Fatal("window violations across two-router circuit")
	}
}

func TestEndToEndFlowControlAcrossRouters(t *testing.T) {
	// A slow consumer at B must throttle the source at A through the
	// registered ack path across both routers, with zero drops.
	a, b, w := pair(t)
	pushed, consumed, cycle := 0, 0, 0
	w.Add(&sim.Func{OnEval: func() {
		if a.Tx[0].Ready() {
			if a.Tx[0].Push(DataWord(uint16(pushed))) {
				pushed++
			}
		}
		if cycle%23 == 0 { // much slower than the 5-cycle line rate
			if _, ok := b.Rx[0].Pop(); ok {
				consumed++
			}
		}
		cycle++
	}})
	w.Run(3000)
	if b.Rx[0].Dropped() != 0 {
		t.Fatalf("flow control failed: %d drops", b.Rx[0].Dropped())
	}
	if consumed < 100 {
		t.Fatalf("consumer starved: %d words", consumed)
	}
	// The source must have been throttled well below line rate.
	if a.Tx[0].Stalled() == 0 {
		t.Fatal("source never stalled despite slow consumer")
	}
}

func TestAssemblyPowerUngatedOffset(t *testing.T) {
	// The paper's key power observation: without clock gating the dynamic
	// power has a high offset — an idle router (Scenario I) consumes
	// almost as much dynamic power as a loaded one.
	p := DefaultParams()
	lib := stdcell.Default013()
	d := Netlist(p, lib)
	run := func(load bool) power.Breakdown {
		a := NewAssembly(p, DefaultAssemblyOptions())
		m := power.NewMeter(d, lib, 25)
		a.BindMeter(m, &lib, false)
		w := sim.NewWorld()
		w.Add(a)
		if load {
			if err := a.EstablishLocal(Circuit{
				In:  LaneID{Port: Tile, Lane: 0},
				Out: LaneID{Port: East, Lane: 0},
			}); err != nil {
				t.Fatal(err)
			}
			n := 0
			w.Add(&sim.Func{OnEval: func() {
				if a.Tx[0].Ready() {
					if a.Tx[0].Push(DataWord(uint16(n * 0x1111))) {
						n++
					}
				}
			}})
		}
		w.Run(2000)
		return m.Report("x")
	}
	idle, loaded := run(false), run(true)
	if loaded.DynamicUW() <= idle.DynamicUW() {
		t.Fatal("load did not increase dynamic power at all")
	}
	// Offset domination: idle dynamic power is at least 60% of loaded.
	if ratio := idle.DynamicUW() / loaded.DynamicUW(); ratio < 0.6 {
		t.Fatalf("dynamic offset ratio %.2f, expected offset-dominated (>0.6)", ratio)
	}
}

func TestAssemblyClockGatingRemovesOffset(t *testing.T) {
	// With configuration-driven clock gating (the paper's future work),
	// the idle router's dynamic power drops dramatically.
	p := DefaultParams()
	lib := stdcell.Default013()
	d := Netlist(p, lib)
	run := func(gated bool) power.Breakdown {
		a := NewAssembly(p, DefaultAssemblyOptions())
		m := power.NewMeter(d, lib, 25)
		a.BindMeter(m, &lib, gated)
		w := sim.NewWorld()
		w.Add(a)
		w.Run(1000)
		return m.Report("idle")
	}
	ungated, gated := run(false), run(true)
	if gated.DynamicUW() >= ungated.DynamicUW()/3 {
		t.Fatalf("gating saved too little: %.1f vs %.1f µW",
			gated.DynamicUW(), ungated.DynamicUW())
	}
	if gated.StaticUW != ungated.StaticUW {
		t.Fatal("gating must not change static power")
	}
}

func TestAssemblyGatedTickNeverExceedsBudget(t *testing.T) {
	// Even with every lane enabled, the gated clock energy must stay
	// within the meter's ungated budget (TickGated panics otherwise).
	p := DefaultParams()
	lib := stdcell.Default013()
	a := NewAssembly(p, DefaultAssemblyOptions())
	m := power.NewMeter(Netlist(p, lib), lib, 25)
	a.BindMeter(m, &lib, true)
	// Enable every output lane and every converter.
	for g := 0; g < p.TotalLanes(); g++ {
		out := p.LaneOf(g)
		inPort := North
		if out.Port == North {
			inPort = South
		}
		if err := a.EstablishLocal(Circuit{
			In:  LaneID{Port: inPort, Lane: out.Lane},
			Out: out,
		}); err != nil {
			t.Fatal(err)
		}
	}
	for _, tx := range a.Tx {
		tx.SetEnabled(true)
	}
	for _, rx := range a.Rx {
		rx.SetEnabled(true)
	}
	w := sim.NewWorld()
	w.Add(a)
	w.Run(10) // panics if the census contract is broken
	if m.Cycles() != 10 {
		t.Fatalf("cycles = %d", m.Cycles())
	}
}

func TestLinkBandwidthMatchesTable4(t *testing.T) {
	p := DefaultParams()
	// Table 4: 16 bit × 1075 MHz = 17.2 Gb/s per link direction.
	if got := LinkBandwidthGbps(p, 1075); got < 17.1 || got > 17.3 {
		t.Fatalf("link bandwidth at 1075 MHz = %.2f Gb/s, want 17.2", got)
	}
	// Section 7.2: 80 Mbit/s per stream at 25 MHz.
	if got := LaneDataRateMbps(p, 25); got != 80 {
		t.Fatalf("lane data rate at 25 MHz = %v Mbit/s, want 80", got)
	}
}

func TestNetlistBlocksMatchTable4Rows(t *testing.T) {
	p := DefaultParams()
	lib := stdcell.Default013()
	d := Netlist(p, lib)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{BlockCrossbar, BlockConfiguration, BlockDataConverter} {
		if _, ok := d.Block(name); !ok {
			t.Errorf("netlist missing Table 4 block %q", name)
		}
	}
	// The paper's headline synthesis results: total ≈ 0.0506 mm² and
	// fmax ≈ 1075 MHz. The calibrated model must land in the right
	// neighbourhood (±25%).
	area := d.AreaMM2(lib)
	if area < 0.0506*0.75 || area > 0.0506*1.25 {
		t.Errorf("CS router area = %.4f mm², paper 0.0506 (±25%%)", area)
	}
	f := d.MaxFreqMHz(lib)
	if f < 1075*0.75 || f > 1075*1.25 {
		t.Errorf("CS router fmax = %.0f MHz, paper 1075 (±25%%)", f)
	}
}

// TestAssemblyStreamingAllocatesNothing: streaming words tile to tile
// through two metered assemblies allocates nothing once the receive
// buffer has grown — the converters hold staged, pending and
// reassembled words by value and the router's per-cycle pass works on
// preallocated slices.
func TestAssemblyStreamingAllocatesNothing(t *testing.T) {
	a, b, _ := pair(t)
	p := DefaultParams()
	lib := stdcell.Default013()
	m := power.NewMeter(Netlist(p, lib), lib, 25)
	a.BindMeter(m, &lib, false)
	b.BindMeter(m, &lib, false)
	next := uint16(0)
	// word streams until one word arrives at B's tile: push at A, Eval
	// both assemblies, pop at B during the Eval phase, Commit both.
	word := func() {
		for {
			if a.Tx[0].Ready() {
				a.Tx[0].Push(DataWord(next))
				next++
			}
			a.Eval()
			b.Eval()
			_, ok := b.Rx[0].Pop()
			a.Commit()
			b.Commit()
			if ok {
				return
			}
		}
	}
	// AllocsPerRun truncates its average, so each run streams a batch:
	// one allocation every few words still reads as at least 1.
	const batch = 16
	words := func() {
		for i := 0; i < batch; i++ {
			word()
		}
	}
	words()
	if got := testing.AllocsPerRun(50, words); got != 0 {
		t.Fatalf("streaming %d words allocates %v times, want 0", batch, got)
	}
}

// TestLanesPerPortBounded: Validate caps LanesPerPort at 64, the width of
// the converter-enable masks the gated idle-energy cache compares. At the
// cap, a converter enabled between cycles on the last lane still refreshes
// the cache: an idle window then charges what a committed idle cycle does.
func TestLanesPerPortBounded(t *testing.T) {
	p := Params{Ports: 2, LanesPerPort: 64, LaneWidth: 4, TileWidth: 16}
	if err := p.Validate(); err != nil {
		t.Fatalf("64 lanes per port rejected: %v", err)
	}
	for _, n := range []int{65, math.MaxInt} {
		bad := p
		bad.LanesPerPort = n
		if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "LanesPerPort") {
			t.Errorf("%d lanes per port: error %v, want one naming LanesPerPort", n, err)
		}
	}
	lib := stdcell.Default013()
	d := Netlist(p, lib)
	internalUW := func(replay bool) float64 {
		a := NewAssembly(p, DefaultAssemblyOptions())
		m := power.NewMeter(d, lib, 25)
		a.BindMeter(m, &lib, true)
		a.IdleWindow(1) // fills the idle-energy cache
		a.Tx[p.LanesPerPort-1].SetEnabled(true)
		if replay {
			a.IdleWindow(1)
		} else {
			a.Eval()
			a.Commit()
		}
		return m.Report("").InternalUW
	}
	if idle, committed := internalUW(true), internalUW(false); idle != committed {
		t.Fatalf("idle window after enabling the last lane's Tx charged %v µW, a committed cycle %v µW",
			idle, committed)
	}
}

// TestAssembliesDoNotAlias builds three assemblies in one call and
// drives the middle one through a looped-back circuit: pushes, pops,
// acks, a configuration change and converter disables. Its neighbours
// in the slabs must stay equal to freshly built assemblies, and every
// slice carved for an assembly must have len == cap, so no append can
// spill into a neighbour.
func TestAssembliesDoNotAlias(t *testing.T) {
	p := DefaultParams()
	opt := DefaultAssemblyOptions()
	as := NewAssemblies(3, p, opt)
	for i, a := range as {
		checkCarved(t, i, a)
	}
	mid := as[1]
	// Loop the East output lanes back into the West input lanes, acks
	// reversed, so a word leaves and re-enters the same router.
	for l := 0; l < p.LanesPerPort; l++ {
		e := p.Global(LaneID{Port: East, Lane: l})
		w := p.Global(LaneID{Port: West, Lane: l})
		mid.R.ConnectIn(w, &mid.R.Out[e])
		mid.R.ConnectAckIn(e, &mid.R.AckOut[w])
	}
	loop := func(lane int) {
		t.Helper()
		for _, c := range []Circuit{
			{In: LaneID{Port: Tile, Lane: lane}, Out: LaneID{Port: East, Lane: lane}},
			{In: LaneID{Port: West, Lane: lane}, Out: LaneID{Port: Tile, Lane: lane}},
		} {
			if err := mid.EstablishLocal(c); err != nil {
				t.Fatal(err)
			}
		}
	}
	w := sim.NewWorld()
	w.Add(as[0], as[1], as[2])
	lane, sent, got := 0, 0, 0
	w.Add(&sim.Func{OnEval: func() {
		if mid.Tx[lane].Ready() && mid.Tx[lane].Push(DataWord(uint16(sent))) {
			sent++
		}
		if _, ok := mid.Rx[lane].Pop(); ok {
			got++
		}
	}})
	loop(0)
	w.Run(400)
	// Move the stream to lane 1: disable lane 0's circuit and
	// converters, and configure lane 1.
	mid.R.Deactivate(LaneID{Port: East, Lane: 0})
	mid.R.Deactivate(LaneID{Port: Tile, Lane: 0})
	mid.Tx[0].SetEnabled(false)
	mid.Rx[0].SetEnabled(false)
	lane = 1
	loop(1)
	w.Run(400)
	if got < 100 || mid.Tx[0].Sent() == 0 || mid.Tx[1].Sent() == 0 {
		t.Fatalf("looped stream delivered %d words (lane 0 sent %d, lane 1 %d)",
			got, mid.Tx[0].Sent(), mid.Tx[1].Sent())
	}
	fresh := NewAssembly(p, opt)
	for _, i := range []int{0, 2} {
		a := as[i]
		if !bytes.Equal(a.R.out, fresh.R.out) || !bytes.Equal(a.R.nextOut, fresh.R.nextOut) ||
			!bytes.Equal(a.R.ack, fresh.R.ack) || !bytes.Equal(a.R.nextAck, fresh.R.nextAck) ||
			!bytes.Equal(a.R.tile, fresh.R.tile) {
			t.Errorf("assembly %d: lane images changed", i)
		}
		for g := range a.R.AckOut {
			if a.R.AckOut[g] != fresh.R.AckOut[g] {
				t.Errorf("assembly %d: AckOut[%d] = %v", i, g, a.R.AckOut[g])
			}
		}
		for g := range a.R.Out {
			if a.R.Config().Lane(g) != fresh.R.Config().Lane(g) {
				t.Errorf("assembly %d: configuration of lane %d changed", i, g)
			}
		}
		for l := range a.Tx {
			if got, want := txState(a.Tx[l]), txState(fresh.Tx[l]); !reflect.DeepEqual(got, want) {
				t.Errorf("assembly %d: Tx[%d] is %+v, fresh %+v", i, l, got, want)
			}
			if got, want := rxState(a.Rx[l]), rxState(fresh.Rx[l]); !reflect.DeepEqual(got, want) {
				t.Errorf("assembly %d: Rx[%d] is %+v, fresh %+v", i, l, got, want)
			}
		}
		checkCarved(t, i, a)
	}
}

// checkCarved fails unless every slice carved for the assembly has
// len == cap.
func checkCarved(t *testing.T, i int, a *Assembly) {
	t.Helper()
	r, c := a.R, a.R.cfg
	for _, s := range []struct {
		name     string
		len, cap int
	}{
		{"Out", len(r.Out), cap(r.Out)}, {"AckOut", len(r.AckOut), cap(r.AckOut)},
		{"in", len(r.in), cap(r.in)}, {"ackIn", len(r.ackIn), cap(r.ackIn)},
		{"out", len(r.out), cap(r.out)}, {"nextOut", len(r.nextOut), cap(r.nextOut)},
		{"ack", len(r.ack), cap(r.ack)}, {"nextAck", len(r.nextAck), cap(r.nextAck)},
		{"tile", len(r.tile), cap(r.tile)}, {"sels", len(c.sels), cap(c.sels)},
		{"src", len(c.src), cap(c.src)}, {"Tx", len(a.Tx), cap(a.Tx)}, {"Rx", len(a.Rx), cap(a.Rx)},
	} {
		if s.len != s.cap {
			t.Errorf("assembly %d: %s has len %d, cap %d", i, s.name, s.len, s.cap)
		}
	}
}

// txState and rxState copy a converter without its wiring: the pointers
// to its assembly, its lane registers and its wake closure.
func txState(c *TxConverter) TxConverter {
	s := *c
	s.asm, s.ackIn, s.wake = nil, nil, nil
	return s
}

func rxState(c *RxConverter) RxConverter {
	s := *c
	s.asm, s.in, s.wake = nil, nil, nil
	return s
}

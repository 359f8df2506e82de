package packetsw

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/stdcell"
)

func TestParamsDefaults(t *testing.T) {
	p := DefaultParams()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.InputVCs() != 20 {
		t.Fatalf("input VCs = %d, want 20 (fair comparison with 20 lanes)", p.InputVCs())
	}
}

func TestParamsValidateRejects(t *testing.T) {
	bad := []Params{
		{Ports: 1, VCs: 4, Depth: 8, PhitBits: 16},
		{Ports: 5, VCs: 0, Depth: 8, PhitBits: 16},
		{Ports: 5, VCs: 4, Depth: 0, PhitBits: 16},
		{Ports: 5, VCs: 4, Depth: 8, PhitBits: 2},
		{Ports: 5, VCs: 4, Depth: 8, PhitBits: 64},
	}
	for i, p := range bad {
		if p.Validate() == nil {
			t.Errorf("case %d accepted %+v", i, p)
		}
	}
	// The buffer knobs are bounded above, with errors naming the field.
	atCap := Params{Ports: 5, VCs: 64, Depth: 1024, PhitBits: 16}
	if err := atCap.Validate(); err != nil {
		t.Errorf("%+v rejected: %v", atCap, err)
	}
	over := []struct {
		p     Params
		field string
	}{
		{Params{Ports: 5, VCs: 65, Depth: 8, PhitBits: 16}, "VCs"},
		{Params{Ports: 5, VCs: math.MaxInt, Depth: 8, PhitBits: 16}, "VCs"},
		{Params{Ports: 5, VCs: 4, Depth: 1025, PhitBits: 16}, "Depth"},
		{Params{Ports: 5, VCs: 4, Depth: math.MaxInt, PhitBits: 16}, "Depth"},
	}
	for _, c := range over {
		if err := c.p.Validate(); err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("%+v: error %v, want one naming %s", c.p, err, c.field)
		}
	}
}

func TestKindHelpers(t *testing.T) {
	if !Head.Opens() || !HeadTail.Opens() || Body.Opens() || Tail.Opens() {
		t.Fatal("Opens wrong")
	}
	if !Tail.Closes() || !HeadTail.Closes() || Head.Closes() || Body.Closes() {
		t.Fatal("Closes wrong")
	}
	for _, k := range []Kind{Invalid, Head, Body, Tail, HeadTail, Kind(9)} {
		if k.String() == "" {
			t.Fatalf("Kind(%d) renders empty", int(k))
		}
	}
}

func TestMakePacket(t *testing.T) {
	fl := MakePacket(2, HeadData(core.East), []uint16{1, 2, 3})
	if len(fl) != 4 {
		t.Fatalf("packet length %d", len(fl))
	}
	if fl[0].Kind != Head || fl[1].Kind != Body || fl[2].Kind != Body || fl[3].Kind != Tail {
		t.Fatalf("flit kinds wrong: %v", fl)
	}
	for _, f := range fl {
		if f.VC != 2 {
			t.Fatal("VC not propagated")
		}
	}
	single := MakePacket(0, HeadData(core.North), nil)
	if len(single) != 1 || single[0].Kind != HeadTail {
		t.Fatalf("empty payload should make a HeadTail flit: %v", single)
	}
	if PortRoute(single[0].Data) != core.North {
		t.Fatal("route did not survive")
	}
}

// inject feeds whole packets into the router's tile port as fast as the
// FIFOs accept, via a sim.Func stimulus.
type injector struct {
	r     *Router
	queue []Flit
}

func (in *injector) eval() {
	for len(in.queue) > 0 {
		if !in.r.Inject(in.queue[0]) {
			return
		}
		in.queue = in.queue[1:]
	}
}

func TestSingleRouterTileLoopback(t *testing.T) {
	// Inject a packet at the tile port routed to... the tile port is the
	// only ejection point of a standalone router, but routing back to the
	// input port is forbidden in the CS router, not in the PS router's
	// model; still, use North->Tile via an external wire to exercise a
	// real traversal.
	p := DefaultParams()
	r := NewRouter(p, PortRoute)
	// Wire North input from an external register we drive.
	var northIn Flit
	r.ConnectIn(core.North, &northIn)
	w := sim.NewWorld()
	w.Add(r)
	pkt := MakePacket(1, HeadData(core.Tile), []uint16{0xAAAA, 0x5555})
	i := 0
	w.Add(&sim.Func{OnEval: func() {
		if i < len(pkt) {
			northIn = pkt[i]
			i++
		} else {
			northIn = Flit{}
		}
	}})
	var fl []Flit
	delivered := func() bool {
		fl = append(fl, r.Drain()...)
		return len(fl) > 0 && fl[len(fl)-1].Kind.Closes()
	}
	if !w.RunUntil(delivered, 100) {
		t.Fatal("packet not delivered")
	}
	if len(fl) != 3 {
		t.Fatalf("ejected %d flits, want 3", len(fl))
	}
	if fl[1].Data != 0xAAAA || fl[2].Data != 0x5555 {
		t.Fatalf("payload corrupted: %v", fl)
	}
	if r.Dropped() != 0 {
		t.Fatal("drops in a trivial transfer")
	}
}

func TestInjectAndRouteToOutput(t *testing.T) {
	p := DefaultParams()
	r := NewRouter(p, PortRoute)
	w := sim.NewWorld()
	w.Add(r)
	inj := &injector{r: r, queue: MakePacket(0, HeadData(core.East), []uint16{7, 8})}
	w.Add(&sim.Func{OnEval: inj.eval})
	var seen []Flit
	w.Add(&sim.Func{OnEval: func() {
		if f := r.Out[core.East]; f.Valid() {
			seen = append(seen, f)
		}
	}})
	w.Run(50)
	if len(seen) != 3 {
		t.Fatalf("East emitted %d flits, want 3", len(seen))
	}
	if seen[0].Kind != Head || seen[2].Kind != Tail {
		t.Fatalf("flit order wrong: %v", seen)
	}
}

func TestWormholeOrderWithinVC(t *testing.T) {
	// Two packets on the same VC must not interleave.
	p := DefaultParams()
	r := NewRouter(p, PortRoute)
	w := sim.NewWorld()
	w.Add(r)
	q := append(MakePacket(0, HeadData(core.East), []uint16{1, 2}),
		MakePacket(0, HeadData(core.South), []uint16{3, 4})...)
	inj := &injector{r: r, queue: q}
	w.Add(&sim.Func{OnEval: inj.eval})
	var east, south []Flit
	w.Add(&sim.Func{OnEval: func() {
		if f := r.Out[core.East]; f.Valid() {
			east = append(east, f)
		}
		if f := r.Out[core.South]; f.Valid() {
			south = append(south, f)
		}
	}})
	w.Run(60)
	if len(east) != 3 || len(south) != 3 {
		t.Fatalf("east %d flits, south %d flits", len(east), len(south))
	}
	if east[1].Data != 1 || east[2].Data != 2 || south[1].Data != 3 || south[2].Data != 4 {
		t.Fatalf("payload order broken: %v / %v", east, south)
	}
}

func TestVCsInterleaveAtSharedOutput(t *testing.T) {
	// Two streams on different VCs to the same output port time-multiplex
	// flit by flit — the collision behaviour of the paper's Figure 10
	// discussion.
	p := DefaultParams()
	r := NewRouter(p, PortRoute)
	var westIn Flit
	r.ConnectIn(core.West, &westIn)
	w := sim.NewWorld()
	w.Add(r)
	// Stream A: tile VC0 -> East. Stream B: west VC1 -> East.
	injA := &injector{r: r}
	for i := 0; i < 5; i++ {
		injA.queue = append(injA.queue, MakePacket(0, HeadData(core.East), []uint16{uint16(i)})...)
	}
	w.Add(&sim.Func{OnEval: injA.eval})
	bFlits := []Flit{}
	for i := 0; i < 5; i++ {
		bFlits = append(bFlits, MakePacket(1, HeadData(core.East), []uint16{uint16(0x100 + i)})...)
	}
	bi := 0
	w.Add(&sim.Func{OnEval: func() {
		if bi < len(bFlits) {
			westIn = bFlits[bi]
			bi++
		} else {
			westIn = Flit{}
		}
	}})
	var fromTile, fromWest int
	w.Add(&sim.Func{OnEval: func() {
		f := r.Out[core.East]
		if !f.Valid() {
			return
		}
		if f.VC == 0 {
			fromTile++
		} else {
			fromWest++
		}
	}})
	w.Run(80)
	if fromTile != 10 || fromWest != 10 {
		t.Fatalf("East carried %d tile + %d west flits, want 10+10", fromTile, fromWest)
	}
}

func TestBackpressureViaCredits(t *testing.T) {
	// Two routers in series; the downstream tile is the sink. The
	// upstream may never overflow the downstream FIFO.
	p := DefaultParams()
	a := NewRouter(p, PortRoute)
	b := NewRouter(p, func(d uint16) core.Port { return core.Tile })
	// a.East -> b.West.
	b.ConnectIn(core.West, &a.Out[core.East])
	a.ConnectCreditIn(core.East, &b.CreditOut[core.West])
	w := sim.NewWorld()
	w.Add(a, b)
	inj := &injector{r: a}
	for i := 0; i < 30; i++ {
		inj.queue = append(inj.queue, MakePacket(0, HeadData(core.East), []uint16{uint16(i), uint16(i + 1)})...)
	}
	w.Add(&sim.Func{OnEval: inj.eval})
	packets := 0
	delivered := func() bool {
		for _, f := range b.Drain() {
			if f.Kind.Closes() {
				packets++
			}
		}
		return packets == 30
	}
	if !w.RunUntil(delivered, 2000) {
		t.Fatalf("delivered %d/30 packets", packets)
	}
	if b.Dropped() != 0 {
		t.Fatalf("credit protocol failed: %d drops", b.Dropped())
	}
	if a.CreditViolations() != 0 || b.CreditViolations() != 0 {
		t.Fatal("credit violations")
	}
}

func TestCreditsThrottleWhenDownstreamBlocked(t *testing.T) {
	// Downstream routes everything to East but East is not consumed by
	// anyone... actually with nothing connected downstream-of-downstream,
	// flits leave the output register freely. To create blocking, fill a
	// VC whose credits never return.
	p := DefaultParams()
	a := NewRouter(p, PortRoute)
	b := NewRouter(p, PortRoute)
	b.ConnectIn(core.West, &a.Out[core.East])
	a.ConnectCreditIn(core.East, &b.CreditOut[core.West])
	// b routes to East. Attach a credit wire to b's East that never
	// pulses: b may send Depth flits, then VC0 blocks, b's West FIFO
	// fills, and a must stop sending.
	var never uint64
	b.ConnectCreditIn(core.East, &never)
	w := sim.NewWorld()
	w.Add(a, b)
	inj := &injector{r: a}
	for i := 0; i < 20; i++ {
		inj.queue = append(inj.queue, MakePacket(0, HeadData(core.East), []uint16{uint16(i)})...)
	}
	w.Add(&sim.Func{OnEval: inj.eval})
	sent := 0 // flits a's switch moved onto its East output
	for i := 0; i < 500; i++ {
		w.Step()
		if a.Out[core.East].Valid() {
			sent++
		}
	}
	if b.Dropped() != 0 {
		t.Fatalf("backpressure failed: %d drops at b", b.Dropped())
	}
	// a may fill b's forwarding budget (Depth credits consumed at b's
	// East) plus b's input FIFO (Depth), plus a couple of in-flight
	// registers — but no more.
	if sent > 2*p.Depth+4 {
		t.Fatalf("a sent %d flits into a blocked path", sent)
	}
	// And it must actually have been throttled: 40 flits were offered.
	if sent >= 40 {
		t.Fatalf("a was never throttled (%d flits)", sent)
	}
}

// TestLatencyAccounting: the InjectCycle annotation rides through the
// router unchanged, so a sink draining the tile port can time a packet
// the way the latency harness does.
func TestLatencyAccounting(t *testing.T) {
	p := DefaultParams()
	r := NewRouter(p, PortRoute)
	var northIn Flit
	r.ConnectIn(core.North, &northIn)
	w := sim.NewWorld()
	w.Add(r)
	sent := false
	w.Add(&sim.Func{OnEval: func() {
		if !sent {
			northIn = Flit{Kind: HeadTail, VC: 0, Data: HeadData(core.Tile),
				InjectCycle: r.Cycle()}
			sent = true
		} else {
			northIn = Flit{}
		}
	}})
	var lat []uint64
	w.Add(&sim.Func{OnEval: func() {
		for _, f := range r.Drain() {
			if f.Kind.Closes() {
				lat = append(lat, w.Cycle()-f.InjectCycle)
			}
		}
	}})
	w.Run(20)
	if len(lat) != 1 {
		t.Fatalf("ejected %d packets, want 1", len(lat))
	}
	if l := lat[0]; l < 1 || l > 5 {
		t.Fatalf("single-hop latency %d cycles, implausible", l)
	}
}

func TestPowerIdleOffsetDominates(t *testing.T) {
	// The packet-switched router's buffers are clocked whether or not
	// data moves: idle dynamic power is high (Fig. 9's tall bars even in
	// Scenario I).
	p := DefaultParams()
	lib := stdcell.Default013()
	d := Netlist(p, lib)
	run := func(load bool) power.Breakdown {
		r := NewRouter(p, PortRoute)
		m := power.NewMeter(d, lib, 25)
		r.BindMeter(m)
		w := sim.NewWorld()
		w.Add(r)
		if load {
			inj := &injector{r: r}
			for i := 0; i < 200; i++ {
				inj.queue = append(inj.queue,
					MakePacket(0, HeadData(core.East), []uint16{uint16(i * 7)})...)
			}
			w.Add(&sim.Func{OnEval: inj.eval})
		}
		w.Run(2000)
		return m.Report("ps")
	}
	idle, loaded := run(false), run(true)
	if loaded.DynamicUW() <= idle.DynamicUW() {
		t.Fatal("load did not increase dynamic power")
	}
	if ratio := idle.DynamicUW() / loaded.DynamicUW(); ratio < 0.6 {
		t.Fatalf("offset ratio %.2f: PS router should be offset dominated", ratio)
	}
}

func TestNetlistMatchesTable4(t *testing.T) {
	p := DefaultParams()
	lib := stdcell.Default013()
	d := Netlist(p, lib)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	area := d.AreaMM2(lib)
	if area < 0.18*0.8 || area > 0.18*1.2 {
		t.Errorf("PS area %.4f mm², paper 0.1800 (±20%%)", area)
	}
	f := d.MaxFreqMHz(lib)
	if f < 507*0.8 || f > 507*1.2 {
		t.Errorf("PS fmax %.0f MHz, paper 507 (±20%%)", f)
	}
	for _, b := range []string{BlockCrossbar, BlockBuffering, BlockArbitration, BlockMisc} {
		if _, ok := d.Block(b); !ok {
			t.Errorf("missing Table 4 block %q", b)
		}
	}
	// Census consistency: the netlist's clock energy equals ClockFJ.
	if got, want := d.ClockEnergyPerCycle(lib), ClockFJ(p, lib); got != want {
		t.Fatalf("census mismatch: netlist %.1f fJ, behavioural %.1f fJ", got, want)
	}
	// Table 4 bandwidth: 16 bit × 507 MHz ≈ 8.1 Gb/s.
	if bw := LinkBandwidthGbps(p, 507); bw < 8.0 || bw > 8.2 {
		t.Errorf("link bandwidth %.2f Gb/s, want ~8.1", bw)
	}
}

func TestInjectChecksVCRange(t *testing.T) {
	r := NewRouter(DefaultParams(), PortRoute)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	r.Inject(Flit{Kind: HeadTail, VC: 7})
}

func TestBodyFlitAtIdleHeadPanics(t *testing.T) {
	r := NewRouter(DefaultParams(), PortRoute)
	r.Inject(Flit{Kind: Body, VC: 2, Data: 1})
	r.Eval()
	r.Commit()
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, "body flit at head of idle VC 0.2") {
			t.Fatalf("panic %q, want the protocol error", msg)
		}
	}()
	r.Eval()
}

func TestInjectRejectsInvalidAndFull(t *testing.T) {
	p := DefaultParams()
	r := NewRouter(p, PortRoute)
	if r.Inject(Flit{}) {
		t.Fatal("accepted invalid flit")
	}
	n := 0
	for r.Inject(Flit{Kind: Body, VC: 0, Data: 1}) {
		n++
		if n > p.Depth {
			t.Fatalf("accepted %d flits into a depth-%d FIFO", n, p.Depth)
		}
	}
	if n != p.Depth {
		t.Fatalf("accepted %d staged flits, want %d", n, p.Depth)
	}
	// The room check is per VC: a full VC 0 leaves VC 1 open.
	if !r.Inject(Flit{Kind: Body, VC: 1, Data: 1}) {
		t.Fatal("full VC 0 blocked an injection on VC 1")
	}
}

func TestNewRouterPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on nil route")
		}
	}()
	NewRouter(DefaultParams(), nil)
}

func TestFlitWireBitsProperty(t *testing.T) {
	// Distinct flits that differ in data differ in wire bits — toggle
	// counting sees real transitions.
	f := func(a, b uint16, k1, k2 uint8) bool {
		fa := Flit{Kind: Kind(k1%4 + 1), VC: 0, Data: a}
		fb := Flit{Kind: Kind(k2%4 + 1), VC: 0, Data: b}
		if fa.Kind == fb.Kind && a == b {
			return fa.wireBits() == fb.wireBits()
		}
		return fa.wireBits() != fb.wireBits()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

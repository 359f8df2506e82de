package core

import (
	"testing"

	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/stdcell"
)

// step runs one Eval/Commit cycle on the router alone.
func step(r *Router) { r.Eval(); r.Commit() }

func TestRouterRoutesConfiguredLane(t *testing.T) {
	p := DefaultParams()
	r := NewRouter(p)
	src := uint8(0)
	in := LaneID{Port: West, Lane: 1}
	out := LaneID{Port: East, Lane: 3}
	r.ConnectIn(p.Global(in), &src)
	if err := r.Configure(Circuit{In: in, Out: out}); err != nil {
		t.Fatal(err)
	}
	step(r) // configuration takes effect at this edge
	src = 0xB
	step(r)
	if got := r.Out[p.Global(out)]; got != 0xB {
		t.Fatalf("output lane = %#x, want 0xB", got)
	}
	// Unconfigured lanes stay idle.
	for g := 0; g < p.TotalLanes(); g++ {
		if g != p.Global(out) && r.Out[g] != 0 {
			t.Fatalf("lane %d active without configuration", g)
		}
	}
}

func TestRouterOutputIsRegistered(t *testing.T) {
	// Section 5.1: "The 20 output lanes of the crossbar are registered."
	// A change at the input must appear at the output exactly one clock
	// edge later, not combinationally.
	p := DefaultParams()
	r := NewRouter(p)
	src := uint8(0)
	r.ConnectIn(p.Global(LaneID{Port: North, Lane: 0}), &src)
	if err := r.Configure(Circuit{
		In:  LaneID{Port: North, Lane: 0},
		Out: LaneID{Port: South, Lane: 0},
	}); err != nil {
		t.Fatal(err)
	}
	step(r)
	src = 0x5
	outG := p.Global(LaneID{Port: South, Lane: 0})
	if r.Out[outG] != 0 {
		t.Fatal("output changed before the clock edge")
	}
	step(r)
	if r.Out[outG] != 0x5 {
		t.Fatalf("output = %#x after one edge, want 0x5", r.Out[outG])
	}
}

func TestRouterConfigStagingTiming(t *testing.T) {
	p := DefaultParams()
	r := NewRouter(p)
	src := uint8(0xF)
	r.ConnectIn(p.Global(LaneID{Port: West, Lane: 0}), &src)
	if err := r.Configure(Circuit{
		In:  LaneID{Port: West, Lane: 0},
		Out: LaneID{Port: East, Lane: 0},
	}); err != nil {
		t.Fatal(err)
	}
	// Before any clock edge the configuration memory is still empty.
	if r.Config().EnabledLanes() != 0 {
		t.Fatal("configuration applied combinationally")
	}
	step(r)
	if r.Config().EnabledLanes() != 1 {
		t.Fatal("configuration not applied at clock edge")
	}
}

func TestRouterMulticast(t *testing.T) {
	// Several output lanes may select the same input lane — the crossbar
	// is fully connected and collision free (Section 4).
	p := DefaultParams()
	r := NewRouter(p)
	src := uint8(0)
	in := LaneID{Port: Tile, Lane: 0}
	r.ConnectIn(p.Global(in), &src)
	outs := []LaneID{{Port: North, Lane: 0}, {Port: East, Lane: 1}, {Port: South, Lane: 2}}
	for _, o := range outs {
		if err := r.Configure(Circuit{In: in, Out: o}); err != nil {
			t.Fatal(err)
		}
	}
	step(r)
	src = 0x7
	step(r)
	for _, o := range outs {
		if r.Out[p.Global(o)] != 0x7 {
			t.Fatalf("multicast output %v = %#x", o, r.Out[p.Global(o)])
		}
	}
}

func TestRouterAckRouting(t *testing.T) {
	// The acknowledgement of a circuit travels in the reverse direction:
	// from the downstream side of the output lane back to the input lane.
	p := DefaultParams()
	r := NewRouter(p)
	src := uint8(0)
	in := LaneID{Port: Tile, Lane: 2}
	out := LaneID{Port: North, Lane: 1}
	r.ConnectIn(p.Global(in), &src)
	ack := false
	r.ConnectAckIn(p.Global(out), &ack)
	if err := r.Configure(Circuit{In: in, Out: out}); err != nil {
		t.Fatal(err)
	}
	step(r)
	ack = true
	step(r)
	if !r.AckOut[p.Global(in)] {
		t.Fatal("ack not routed back to the circuit's input lane")
	}
	ack = false
	step(r)
	if r.AckOut[p.Global(in)] {
		t.Fatal("ack register not cleared")
	}
	// No other ack outputs fired.
	for g := 0; g < p.TotalLanes(); g++ {
		if g != p.Global(in) && r.AckOut[g] {
			t.Fatalf("spurious ack on lane %d", g)
		}
	}
}

func TestRouterDeactivate(t *testing.T) {
	p := DefaultParams()
	r := NewRouter(p)
	src := uint8(0xA)
	in := LaneID{Port: West, Lane: 0}
	out := LaneID{Port: East, Lane: 0}
	r.ConnectIn(p.Global(in), &src)
	if err := r.Configure(Circuit{In: in, Out: out}); err != nil {
		t.Fatal(err)
	}
	step(r)
	step(r)
	if r.Out[p.Global(out)] != 0xA {
		t.Fatal("circuit not established")
	}
	r.Deactivate(out)
	step(r) // deactivation commits
	step(r) // output register clears
	if r.Out[p.Global(out)] != 0 {
		t.Fatal("deactivated lane still driving data")
	}
}

func TestRouterUnconnectedInputsReadIdle(t *testing.T) {
	p := DefaultParams()
	r := NewRouter(p)
	if err := r.Configure(Circuit{
		In:  LaneID{Port: North, Lane: 0},
		Out: LaneID{Port: Tile, Lane: 0},
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		step(r)
	}
	if r.Out[p.Global(LaneID{Port: Tile, Lane: 0})] != 0 {
		t.Fatal("unconnected input did not read as idle")
	}
}

func TestRouterLaneMasking(t *testing.T) {
	// Upstream registers may be wider than the lane; the crossbar only
	// passes LaneWidth bits.
	p := DefaultParams()
	r := NewRouter(p)
	src := uint8(0xFF)
	in := LaneID{Port: South, Lane: 3}
	out := LaneID{Port: North, Lane: 3}
	r.ConnectIn(p.Global(in), &src)
	if err := r.Configure(Circuit{In: in, Out: out}); err != nil {
		t.Fatal(err)
	}
	step(r)
	step(r)
	if got := r.Out[p.Global(out)]; got != 0xF {
		t.Fatalf("lane value = %#x, want masked 0xF", got)
	}
}

func TestRouterPowerAccounting(t *testing.T) {
	p := DefaultParams()
	lib := stdcell.Default013()
	d := Netlist(p, lib)
	r := NewRouter(p)
	m := power.NewMeter(d, lib, 25)
	r.BindMeter(m)
	src := uint8(0)
	in := LaneID{Port: West, Lane: 0}
	r.ConnectIn(p.Global(in), &src)
	if err := r.Configure(Circuit{In: in, Out: LaneID{Port: East, Lane: 0}}); err != nil {
		t.Fatal(err)
	}
	step(r) // config write toggles the config registers
	if m.Toggles(power.ToggleReg) == 0 {
		t.Fatal("configuration write produced no register toggles")
	}
	base := m.Toggles(power.ToggleReg)
	// Constant data: no further toggles.
	src = 0x0
	for i := 0; i < 10; i++ {
		step(r)
	}
	if m.Toggles(power.ToggleReg) != base {
		t.Fatal("idle data produced register toggles")
	}
	// Alternating data: 4 bits flip per cycle on the output register.
	for i := 0; i < 10; i++ {
		if i%2 == 0 {
			src = 0xF
		} else {
			src = 0x0
		}
		step(r)
	}
	if m.Toggles(power.ToggleReg) <= base {
		t.Fatal("toggling data produced no register toggles")
	}
	if m.Toggles(power.ToggleLink) == 0 {
		t.Fatal("East output should charge the link wire")
	}
}

func TestRouterClockGatingEnergy(t *testing.T) {
	p := DefaultParams()
	lib := stdcell.Default013()
	r := NewRouter(p)
	idle := r.ClockFJ(lib, true)
	full := r.ClockFJ(lib, false)
	if idle >= full {
		t.Fatalf("gated idle clock %.0f fJ not below ungated %.0f fJ", idle, full)
	}
	// Gated idle still clocks the configuration memory.
	wantIdle := power.ClockEnergyFor(lib, p.ConfigBits(), 0)
	if idle != wantIdle {
		t.Fatalf("gated idle = %v, want %v (config memory only)", idle, wantIdle)
	}
	if err := r.Configure(Circuit{
		In:  LaneID{Port: West, Lane: 0},
		Out: LaneID{Port: East, Lane: 0},
	}); err != nil {
		t.Fatal(err)
	}
	step(r)
	oneLane := r.ClockFJ(lib, true)
	if oneLane <= idle || oneLane >= full {
		t.Fatalf("one enabled lane: %v fJ, expected between %v and %v", oneLane, idle, full)
	}
}

func TestRouterCensusConsistency(t *testing.T) {
	p := DefaultParams()
	lib := stdcell.Default013()
	if err := VerifyClockCensus(p, lib); err != nil {
		t.Fatal(err)
	}
	// Ungated per-cycle clock energy equals the netlist design's.
	r := NewRouter(p)
	behav := r.ClockFJ(lib, false)
	want := power.ClockEnergyFor(lib, RouterRegBits(p), 0)
	if behav != want {
		t.Fatalf("router clock census %v != %v", behav, want)
	}
}

func TestRouterPushConfigPanics(t *testing.T) {
	r := NewRouter(DefaultParams())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	r.PushConfig(ConfigCmd{Out: 99})
}

func TestRouterInWorld(t *testing.T) {
	// Two routers connected back to back, stepped by the kernel: data
	// crosses each router in one cycle (registered outputs).
	p := DefaultParams()
	a, b := NewRouter(p), NewRouter(p)
	src := uint8(0)
	// a: West.0 -> East.0 ; link to b: West.0 ; b: West.0 -> Tile.0
	a.ConnectIn(p.Global(LaneID{Port: West, Lane: 0}), &src)
	b.ConnectIn(p.Global(LaneID{Port: West, Lane: 0}), &a.Out[p.Global(LaneID{Port: East, Lane: 0})])
	if err := a.Configure(Circuit{In: LaneID{Port: West, Lane: 0}, Out: LaneID{Port: East, Lane: 0}}); err != nil {
		t.Fatal(err)
	}
	if err := b.Configure(Circuit{In: LaneID{Port: West, Lane: 0}, Out: LaneID{Port: Tile, Lane: 0}}); err != nil {
		t.Fatal(err)
	}
	w := sim.NewWorld()
	w.Add(b, a) // order must not matter
	w.Step()    // configs commit
	src = 0x9
	w.Step() // into a's output register
	w.Step() // into b's output register
	if got := b.Out[p.Global(LaneID{Port: Tile, Lane: 0})]; got != 0x9 {
		t.Fatalf("two-router pipeline output = %#x, want 0x9", got)
	}
}

package benet

import (
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/mesh"
	"repro/internal/packetsw"
	"repro/internal/sim"
)

func TestHeadDataXYRoundTrip(t *testing.T) {
	f := func(x, y uint8) bool {
		c := mesh.Coord{X: int(x % 16), Y: int(y % 16)}
		return DecodeXY(HeadDataXY(c)) == c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("oversized coordinate accepted")
		}
	}()
	HeadDataXY(mesh.Coord{X: 16, Y: 0})
}

func TestRouteXY(t *testing.T) {
	r := RouteXY(mesh.Coord{X: 2, Y: 2})
	cases := map[mesh.Coord]core.Port{
		{X: 4, Y: 2}: core.East,
		{X: 0, Y: 7}: core.West, // X corrected first
		{X: 2, Y: 5}: core.South,
		{X: 2, Y: 0}: core.North,
		{X: 2, Y: 2}: core.Tile,
	}
	for dst, want := range cases {
		if got := r(HeadDataXY(dst)); got != want {
			t.Errorf("route to %v = %v, want %v", dst, got, want)
		}
	}
}

func TestSingleMessageDelivery(t *testing.T) {
	n := New(4, 4, packetsw.DefaultParams())
	n.Send(Message{
		Src: mesh.Coord{X: 0, Y: 0}, Dst: mesh.Coord{X: 3, Y: 2},
		Payload: []uint16{0x3FF},
	})
	for i := 0; i < 200 && n.Pending() > 0; i++ {
		n.Step()
	}
	d := n.Delivered()
	if len(d) != 1 {
		t.Fatalf("delivered %d messages", len(d))
	}
	if d[0].RecvCycle <= d[0].SentCycle {
		t.Fatal("latency not recorded")
	}
	// 5 hops, wormhole: latency is a handful of cycles per hop.
	if lat := d[0].RecvCycle - d[0].SentCycle; lat > 60 {
		t.Fatalf("latency %d cycles for 5 hops, too slow", lat)
	}
}

func TestManyMessagesAllArrive(t *testing.T) {
	n := New(4, 4, packetsw.DefaultParams())
	const msgs = 40
	for i := 0; i < msgs; i++ {
		n.Send(Message{
			Src:     mesh.Coord{X: i % 4, Y: (i / 4) % 4},
			Dst:     mesh.Coord{X: 3 - i%4, Y: 3 - (i/4)%4},
			Payload: []uint16{uint16(i), uint16(i + 1)},
		})
	}
	for i := 0; i < 5000 && n.Pending() > 0; i++ {
		n.Step()
	}
	if got := len(n.Delivered()); got != msgs {
		t.Fatalf("delivered %d/%d", got, msgs)
	}
	// No router dropped anything (credits intact).
	for y := 0; y < 4; y++ {
		for x := 0; x < 4; x++ {
			if d := n.Router(mesh.Coord{X: x, Y: y}).Dropped(); d != 0 {
				t.Fatalf("router (%d,%d) dropped %d flits", x, y, d)
			}
		}
	}
}

func TestSamePairOrderPreserved(t *testing.T) {
	// Wormhole routing on one VC preserves order between a fixed pair.
	n := New(3, 1, packetsw.DefaultParams())
	for i := 0; i < 10; i++ {
		n.Send(Message{
			Src: mesh.Coord{X: 0, Y: 0}, Dst: mesh.Coord{X: 2, Y: 0},
			Payload: []uint16{uint16(100 + i)},
		})
	}
	for i := 0; i < 2000 && n.Pending() > 0; i++ {
		n.Step()
	}
	d := n.Delivered()
	if len(d) != 10 {
		t.Fatalf("delivered %d/10", len(d))
	}
	for i := 1; i < len(d); i++ {
		if d[i].SentCycle < d[i-1].SentCycle {
			t.Fatal("delivery order violates send order")
		}
	}
}

func TestSendPanicsOnEmptyPayload(t *testing.T) {
	n := New(2, 2, packetsw.DefaultParams())
	defer func() {
		if recover() == nil {
			t.Fatal("empty message accepted")
		}
	}()
	n.Send(Message{Src: mesh.Coord{}, Dst: mesh.Coord{X: 1}, Payload: nil})
}

func TestNewPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(0, 2, packetsw.DefaultParams())
}

func TestRouterAccessorBounds(t *testing.T) {
	n := New(2, 2, packetsw.DefaultParams())
	if n.Router(mesh.Coord{X: 1, Y: 1}) == nil {
		t.Fatal("router missing")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	n.Router(mesh.Coord{X: 2, Y: 0})
}

// burstPlan returns a deterministic sparse burst schedule: one 4-word
// message roughly every gap cycles, alternating corners.
func burstPlan(n int, gap uint64) []struct {
	cycle    uint64
	src, dst mesh.Coord
} {
	plan := make([]struct {
		cycle    uint64
		src, dst mesh.Coord
	}, n)
	for i := range plan {
		plan[i].cycle = uint64(i+1) * gap
		plan[i].src = mesh.Coord{X: i % 4, Y: (i / 4) % 4}
		plan[i].dst = mesh.Coord{X: 3 - i%4, Y: 3 - (i/4)%4}
		if plan[i].src == plan[i].dst {
			plan[i].dst.X = (plan[i].dst.X + 1) % 4
		}
	}
	return plan
}

// TestSendAtKernelEquivalence: a schedule of sparse configuration bursts
// delivers identical messages with identical timestamps under the naive
// oracle and the production kernel — while the production kernel
// fast-forwards the dead windows the oracle steps through. The scheduler
// releases each burst from its Eval into injection queues that pumps
// later in the same sweep poll without being woken, so a kernel that
// polls every component before running any Eval delivers each burst a
// cycle late.
func TestSendAtKernelEquivalence(t *testing.T) {
	type delivery struct {
		dst  [2]int
		sent uint64
		recv uint64
	}
	const cycles = 20000
	run := func(k sim.Kernel) ([]delivery, uint64) {
		n := New(4, 4, packetsw.DefaultParams(), sim.WithKernel(k))
		for _, b := range burstPlan(24, 800) {
			n.SendAt(b.cycle, Message{Src: b.src, Dst: b.dst,
				Payload: []uint16{1, 2, 3, 4}})
		}
		n.Run(cycles)
		var out []delivery
		for _, m := range n.Delivered() {
			out = append(out, delivery{
				dst: [2]int{m.Dst.X, m.Dst.Y}, sent: m.SentCycle, recv: m.RecvCycle,
			})
		}
		_, ffCycles := n.World().FastForwards()
		return out, ffCycles
	}
	ref, _ := run(sim.KernelNaive)
	if len(ref) != 24 {
		t.Fatalf("naive kernel delivered %d of 24 bursts", len(ref))
	}
	got, ff := run(sim.KernelActive)
	if len(got) != len(ref) {
		t.Fatalf("active kernel delivered %d, naive %d", len(got), len(ref))
	}
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("active kernel delivery %d differs: %+v vs naive %+v", i, got[i], ref[i])
		}
	}
	if ff < cycles/2 {
		t.Fatalf("active kernel fast-forwarded only %d of %d cycles", ff, cycles)
	}
}

// TestSendAtValidation: empty payloads and past cycles are rejected; the
// current cycle is legal and releases on the next step.
func TestSendAtValidation(t *testing.T) {
	n := New(2, 2, packetsw.DefaultParams())
	n.Run(10)
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s accepted", name)
			}
		}()
		f()
	}
	msg := Message{Src: mesh.Coord{X: 0, Y: 0}, Dst: mesh.Coord{X: 1, Y: 1},
		Payload: []uint16{7}}
	mustPanic("past cycle", func() { n.SendAt(5, msg) })
	mustPanic("empty payload", func() {
		n.SendAt(20, Message{Src: msg.Src, Dst: msg.Dst})
	})
	n.SendAt(n.Cycle(), msg) // current cycle: releases on the next step
	for i := 0; i < 100 && n.Pending() > 0; i++ {
		n.Step()
	}
	if d := n.Delivered(); len(d) != 1 || d[0].SentCycle != 10 {
		t.Fatalf("current-cycle SendAt: deliveries %+v", d)
	}
}

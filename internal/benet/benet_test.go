package benet

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/mesh"
	"repro/internal/packetsw"
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

// TestNewBoundedByAddressFields: head flits address x and y in 4-bit
// fields, so New rejects a mesh wider or taller than 16, naming the
// limit, and the largest mesh still delivers corner to corner.
func TestNewBoundedByAddressFields(t *testing.T) {
	for _, sz := range [][2]int{{17, 1}, {20, 1}, {1, 17}} {
		func() {
			defer func() {
				r := recover()
				if msg, _ := r.(string); !strings.Contains(msg, "4-bit") {
					t.Errorf("New(%d, %d): panic %v, want one naming the 4-bit address fields", sz[0], sz[1], r)
				}
			}()
			New(sz[0], sz[1], packetsw.DefaultParams())
		}()
	}
	n := New(16, 16, packetsw.DefaultParams())
	far := mesh.Coord{X: 15, Y: 15}
	n.Send(Message{Src: mesh.Coord{}, Dst: far, Payload: []uint16{1}})
	for i := 0; i < 500 && n.Pending() > 0; i++ {
		n.Step()
	}
	if d := n.Delivered(); len(d) != 1 || d[0].Dst != far {
		t.Fatalf("16x16 corner to corner delivered %+v", d)
	}
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

func TestPendingCountsUndeliveredMessages(t *testing.T) {
	n := New(4, 4, packetsw.DefaultParams())
	n.Send(Message{Src: mesh.Coord{X: 0, Y: 0}, Dst: mesh.Coord{X: 3, Y: 3}, Payload: []uint16{1}})
	if got := n.Pending(); got != 1 {
		t.Fatalf("one send: Pending() = %d before a step, want 1", got)
	}
	n.Step()
	if got := n.Pending(); got != 1 {
		t.Fatalf("one send: Pending() = %d after a step, want 1", got)
	}
	// Two messages queued at one node and one at another.
	n.Send(Message{Src: mesh.Coord{X: 1, Y: 0}, Dst: mesh.Coord{X: 2, Y: 2}, Payload: []uint16{2, 3}})
	n.Send(Message{Src: mesh.Coord{X: 1, Y: 0}, Dst: mesh.Coord{X: 0, Y: 3}, Payload: []uint16{4}})
	n.Send(Message{Src: mesh.Coord{X: 2, Y: 1}, Dst: mesh.Coord{X: 0, Y: 3}, Payload: []uint16{5}})
	if got := n.Pending(); got != 4 {
		t.Fatalf("four sends from three nodes: Pending() = %d before a step, want 4", got)
	}
	n.Step()
	if got := n.Pending(); got != 4 {
		t.Fatalf("four sends from three nodes: Pending() = %d after a step, want 4", got)
	}
	delivered := 0
	for i := 0; i < 500 && n.Pending() > 0; i++ {
		n.Step()
		delivered += len(n.Delivered())
	}
	if delivered != 4 || n.Pending() != 0 {
		t.Fatalf("delivered %d of 4, Pending() = %d", delivered, n.Pending())
	}
}

func TestSendRejectsEndpointsOffMesh(t *testing.T) {
	on := mesh.Coord{X: 1, Y: 2}
	// (9,9) fits the 4-bit address fields but lies outside a 4×4 mesh.
	off := mesh.Coord{X: 9, Y: 9}
	for _, c := range []struct {
		name     string
		src, dst mesh.Coord
	}{
		{"destination", on, off},
		{"source", off, on},
	} {
		t.Run(c.name, func(t *testing.T) {
			n := New(4, 4, packetsw.DefaultParams())
			defer func() {
				const want = "benet: (9,9) outside 4x4"
				if r := recover(); r != want {
					t.Fatalf("panic %v, want %q", r, want)
				}
				if got := n.Pending(); got != 0 {
					t.Fatalf("rejected message left Pending() = %d", got)
				}
			}()
			n.Send(Message{Src: c.src, Dst: c.dst, Payload: []uint16{1}})
		})
	}
}

// TestDeliveredStaysValidUntilNextCall checks the two-buffer contract:
// the slice Delivered returns keeps its messages while later deliveries
// collect, until Delivered is called again.
func TestDeliveredStaysValidUntilNextCall(t *testing.T) {
	n := New(3, 1, packetsw.DefaultParams())
	send := func(word uint16) {
		n.Send(Message{Src: mesh.Coord{X: 0, Y: 0}, Dst: mesh.Coord{X: 2, Y: 0}, Payload: []uint16{word}})
	}
	run := func() {
		for i := 0; i < 200 && n.Pending() > 0; i++ {
			n.Step()
		}
	}
	send(1)
	run()
	first := n.Delivered()
	send(2)
	run()
	if len(first) != 1 || first[0].Payload[0] != 1 {
		t.Fatalf("first delivery changed before the next call: %+v", first)
	}
	second := n.Delivered()
	if len(second) != 1 || second[0].Payload[0] != 2 {
		t.Fatalf("second call returned %+v", second)
	}
}

// TestSteppingAllocatesNothing pins the per-cycle path of a loaded mesh,
// injection, routing, ejection and delivery, to zero allocations once its
// buffers have grown: Send may grow its queues, stepping may not.
func TestSteppingAllocatesNothing(t *testing.T) {
	n := New(4, 4, packetsw.DefaultParams())
	payload := []uint16{1, 2, 3, 4}
	sendAll := func() {
		for i := 0; i < 16; i++ {
			for k := 1; k <= 8; k++ {
				dst := (i + 5*k) % 16
				n.Send(Message{Src: mesh.Coord{X: i % 4, Y: i / 4},
					Dst: mesh.Coord{X: dst % 4, Y: dst / 4}, Payload: payload})
			}
		}
	}
	step := func() {
		n.Step()
		n.Delivered()
	}
	for round := 0; round < 3; round++ {
		sendAll()
		for i := 0; i < 2000 && n.Pending() > 0; i++ {
			step()
		}
	}
	sendAll()
	// AllocsPerRun truncates its average, so each run steps a batch of
	// cycles: one allocation every few cycles still reads as at least 1.
	const batch = 8
	got := testing.AllocsPerRun(5, func() {
		for i := 0; i < batch; i++ {
			step()
		}
	})
	if got != 0 {
		t.Fatalf("stepping %d loaded cycles allocates %v times, want 0", batch, got)
	}
	if n.Pending() == 0 {
		t.Fatal("traffic drained before the measured cycles ended")
	}
}

// TestSelfSendDelivers: a message addressed to its own source never
// enters the router, where XY routing would turn it back out of the tile
// port it came in by, a U-turn the router never serves. The next Step
// delivers it, alone or ahead of a later message from the same node,
// which still arrives.
func TestSelfSendDelivers(t *testing.T) {
	n := New(4, 4, packetsw.DefaultParams())
	home, next := mesh.Coord{X: 1, Y: 1}, mesh.Coord{X: 2, Y: 1}
	loopback := func(word uint16) {
		t.Helper()
		n.Step()
		d := n.Delivered()
		if len(d) != 1 || d[0].Dst != home || d[0].Payload[0] != word || d[0].RecvCycle != d[0].SentCycle {
			t.Fatalf("step after sending word %d to itself delivered %+v", word, d)
		}
	}
	n.Send(Message{Src: home, Dst: home, Payload: []uint16{6}})
	loopback(6)
	n.Send(Message{Src: home, Dst: home, Payload: []uint16{7}})
	n.Send(Message{Src: home, Dst: next, Payload: []uint16{8}})
	loopback(7)
	var d []Message
	for i := 0; i < 1000 && len(d) == 0; i++ {
		n.Step()
		d = n.Delivered()
	}
	if len(d) != 1 || d[0].Dst != next || d[0].Payload[0] != 8 || n.Pending() != 0 {
		t.Fatalf("neighbour send: delivered %+v, Pending() = %d", d, n.Pending())
	}
}

// TestQueuedPacketFlits: a queued packet yields, flit by flit, exactly
// the flits packetsw.MakePacket builds for its message.
func TestQueuedPacketFlits(t *testing.T) {
	dst := mesh.Coord{X: 3, Y: 2}
	for words := 1; words <= 6; words++ {
		payload := make([]uint16, words)
		for i := range payload {
			payload[i] = uint16(0x100*words + i)
		}
		p := packet{route: HeadDataXY(dst), payload: payload}
		var got []packetsw.Flit
		for ; p.next <= len(p.payload); p.next++ {
			got = append(got, p.flit())
		}
		if want := packetsw.MakePacket(0, HeadDataXY(dst), payload); !slices.Equal(got, want) {
			t.Errorf("%d words: flits %v, want %v", words, got, want)
		}
	}
}

// TestSendReclaimsQueues: the send queues and in-flight lists reuse the
// buffers a backlog grew. After three rounds of sending a fixed backlog
// and draining it, a further round allocates nothing.
func TestSendReclaimsQueues(t *testing.T) {
	n := New(4, 4, packetsw.DefaultParams())
	payload := []uint16{1, 2, 3, 4}
	round := func() {
		for k := 1; k <= 8; k++ {
			for i := 0; i < 16; i++ {
				dst := (i + 5*k) % 16
				n.Send(Message{Src: mesh.Coord{X: i % 4, Y: i / 4},
					Dst: mesh.Coord{X: dst % 4, Y: dst / 4}, Payload: payload})
			}
		}
		for i := 0; i < 2000 && n.Pending() > 0; i++ {
			n.Step()
			n.Delivered()
		}
	}
	for r := 0; r < 3; r++ {
		round()
	}
	if n.Pending() != 0 {
		t.Fatalf("backlog left %d messages pending", n.Pending())
	}
	if got := testing.AllocsPerRun(3, round); got != 0 {
		t.Fatalf("a round of sending and draining the backlog allocates %v times, want 0", got)
	}
}

// TestFIFOReclaimsInPlace: the queue pops in push order, and a push
// into a full buffer grows it only while more than half of it is live.
func TestFIFOReclaimsInPlace(t *testing.T) {
	var q fifo[int]
	var model []int
	rng := bitvec.NewXorShift64(3)
	high := 0
	for i := 0; i < 20000; i++ {
		if rng.Intn(2) == 0 || len(model) == 0 {
			q.push(i)
			model = append(model, i)
		} else if got := q.pop(); got != model[0] {
			t.Fatalf("step %d: pop %d, want %d", i, got, model[0])
		} else {
			model = model[1:]
		}
		high = max(high, len(model))
		if q.len() != len(model) {
			t.Fatalf("step %d: len %d, want %d", i, q.len(), len(model))
		}
		if cap(q.buf) > 4*high {
			t.Fatalf("step %d: buffer of %d for a live high-water mark of %d", i, cap(q.buf), high)
		}
	}
}

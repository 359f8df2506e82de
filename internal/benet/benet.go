// Package benet implements the paper's best-effort (BE) network: a
// packet-switched mesh (reusing the virtual-channel router of
// internal/packetsw with XY routing) that carries the low-rate traffic the
// paper excludes from the circuit-switched data network — control,
// interrupts and, most importantly, the 10-bit crossbar configuration
// commands the CCN sends to the routers (Section 5.1: "The configuration
// interface is connected to the separate BE network").
package benet

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/mesh"
	"repro/internal/packetsw"
	"repro/internal/sim"
)

// HeadDataXY encodes a mesh destination in a head flit: X in bits 0–3,
// Y in bits 4–7.
func HeadDataXY(c mesh.Coord) uint16 {
	if c.X < 0 || c.X > 15 || c.Y < 0 || c.Y > 15 {
		panic(fmt.Sprintf("benet: coordinate %v exceeds the 4-bit address fields", c))
	}
	return uint16(c.X) | uint16(c.Y)<<4
}

// DecodeXY is the inverse of HeadDataXY.
func DecodeXY(d uint16) mesh.Coord {
	return mesh.Coord{X: int(d & 0xF), Y: int(d >> 4 & 0xF)}
}

// RouteXY returns the dimension-ordered routing function for a router at
// the given coordinate: core.ExitPort's X-then-Y rule toward the head
// flit's destination.
func RouteXY(here mesh.Coord) packetsw.RouteFunc {
	return func(head uint16) core.Port {
		dst := DecodeXY(head)
		return core.ExitPort(here.X, here.Y, dst.X, dst.Y, true)
	}
}

// Message is one BE payload delivered between tiles.
type Message struct {
	// Src and Dst are the endpoints.
	Src, Dst mesh.Coord
	// Payload are the 16-bit data words.
	Payload []uint16
	// SentCycle and RecvCycle time-stamp the transfer.
	SentCycle, RecvCycle uint64
}

// Network is a W×H best-effort mesh.
type Network struct {
	// W and H are the grid dimensions.
	W, H int
	// P are the router parameters.
	P packetsw.Params

	routers []*packetsw.Router
	world   *sim.World

	nodes   []node
	pending int // messages sent and not yet delivered
	// recv collects the deliveries since the last Delivered call; handed
	// is the buffer that call returned, which the next call reuses.
	recv, handed []Message
}

// node holds one tile's queues.
type node struct {
	// send holds the messages this node sent that still have flits to
	// inject, oldest first.
	send fifo[packet]
	// inflight holds the messages sent to this node and not yet
	// delivered, oldest first: each packet that closes here is paired
	// with the oldest.
	inflight fifo[Message]
	// loop holds the self-addressed messages sent since the last Step.
	loop []Message
}

// packet is a message waiting at its source: the head flit's route, the
// payload and the index of the next flit to inject (0 is the head).
type packet struct {
	route   uint16
	next    int
	payload []uint16
}

// flit returns the packet's next flit, segmented as packetsw.AppendPacket
// segments a message: a Head carrying the route, then a Body flit per
// payload word but the last, which is a Tail, all on VC 0.
func (p *packet) flit() packetsw.Flit {
	if p.next == 0 {
		return packetsw.Flit{Kind: packetsw.Head, Data: p.route}
	}
	k := packetsw.Body
	if p.next == len(p.payload) {
		k = packetsw.Tail
	}
	return packetsw.Flit{Kind: k, Data: p.payload[p.next-1]}
}

// fifo is a queue that reclaims its consumed head in place: a push into
// a full buffer that is at least half consumed moves the live entries to
// its front instead of growing a new array, so the buffer grows only
// while more than half of it is live. Consumed slots are zeroed, so the
// queue keeps no payload it has handed on.
type fifo[T any] struct {
	buf  []T
	head int // index of the oldest live entry
}

func (q *fifo[T]) len() int { return len(q.buf) - q.head }

// front returns the oldest entry of a non-empty queue.
func (q *fifo[T]) front() *T { return &q.buf[q.head] }

func (q *fifo[T]) push(v T) {
	if len(q.buf) == cap(q.buf) && q.head > 0 && 2*q.head >= len(q.buf) {
		live := copy(q.buf, q.buf[q.head:])
		clear(q.buf[live:])
		q.buf, q.head = q.buf[:live], 0
	}
	q.buf = append(q.buf, v)
}

// pop removes and returns the oldest entry of a non-empty queue. An
// emptied queue restarts at the front of its buffer.
func (q *fifo[T]) pop() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	if q.head++; q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
	return v
}

// New builds a W×H best-effort mesh with XY routing. W and H are at most
// 16: a head flit addresses x and y in 4-bit fields (HeadDataXY). World
// options select the simulation kernel (default: the production kernel,
// which skips routers with no buffered flits or arriving traffic).
func New(w, h int, p packetsw.Params, wopts ...sim.WorldOption) *Network {
	if w < 1 || h < 1 {
		panic(fmt.Sprintf("benet: invalid size %dx%d", w, h))
	}
	if w > 16 || h > 16 {
		panic(fmt.Sprintf("benet: %dx%d mesh exceeds 16x16, the reach of the 4-bit address fields", w, h))
	}
	n := &Network{W: w, H: h, P: p, nodes: make([]node, w*h)}
	n.routers, n.world = newMesh(w, h, p, wopts)
	// Injection and ejection glue per node. Pumps are first-class
	// components, not bare sim.Funcs, so the kernel can skip a node whose
	// queues are empty and whose router has nothing ejected.
	// Pumps are Quiescers but not Wakers: Send fills their queues
	// between steps, before the next cycle's poll.
	for i := range n.routers {
		n.world.Add(&pump{net: n, idx: i})
	}
	return n
}

// newMesh builds the W×H routers with XY routing, registers them
// row-major in a new world and wires their links and credit returns.
func newMesh(w, h int, p packetsw.Params, wopts []sim.WorldOption) ([]*packetsw.Router, *sim.World) {
	world := sim.NewWorld(wopts...)
	routers := make([]*packetsw.Router, w*h)
	for i := range routers {
		routers[i] = packetsw.NewRouter(p, RouteXY(mesh.Coord{X: i % w, Y: i / w}))
		world.Add(routers[i])
	}
	// Wire links and credit returns in both directions.
	wire := func(a *packetsw.Router, aPort core.Port, b *packetsw.Router, bPort core.Port) {
		b.ConnectIn(bPort, &a.Out[aPort])
		a.ConnectCreditIn(aPort, &b.CreditOut[bPort])
	}
	for i, r := range routers {
		if i%w+1 < w {
			wire(r, core.East, routers[i+1], core.West)
			wire(routers[i+1], core.West, r, core.East)
		}
		if i+w < len(routers) {
			wire(r, core.South, routers[i+w], core.North)
			wire(routers[i+w], core.North, r, core.South)
		}
	}
	return routers, world
}

// pump is the per-node injection/ejection glue component.
type pump struct {
	net *Network
	idx int
}

// Eval implements sim.Clocked.
func (p *pump) Eval() { p.net.pump(p.idx) }

// Commit implements sim.Clocked.
func (p *pump) Commit() {}

// Quiescent implements sim.Quiescer: nothing queued for injection or
// loopback and nothing ejected awaiting drain. The router's own
// quiescence (and its Inject wake) covers flits in flight.
func (p *pump) Quiescent() bool {
	nd := &p.net.nodes[p.idx]
	return nd.send.len() == 0 && len(nd.loop) == 0 && p.net.routers[p.idx].EjectedPending() == 0
}

// IdleWindow implements sim.Quiescer: the pump keeps no per-cycle state,
// so idle replay is a no-op.
func (p *pump) IdleWindow(n uint64) {}

var _ sim.Quiescer = (*pump)(nil)

// index returns the router index of a coordinate, panicking if it lies
// outside the mesh.
func (n *Network) index(c mesh.Coord) int {
	if c.X < 0 || c.X >= n.W || c.Y < 0 || c.Y >= n.H {
		panic(fmt.Sprintf("benet: %v outside %dx%d", c, n.W, n.H))
	}
	return c.Y*n.W + c.X
}

// Router exposes the BE router at a coordinate (e.g. to bind power meters).
func (n *Network) Router(c mesh.Coord) *packetsw.Router { return n.routers[n.index(c)] }

// Send queues a message for delivery; it is segmented into a wormhole
// packet (head flit with the XY address, one flit per payload word) as
// its source injects it. VC 0 carries all BE traffic in this model. Both
// endpoints must lie on the mesh: XY routing would carry a packet
// addressed beyond it off the mesh edge.
//
// The network keeps msg.Payload until delivery and reads its words as
// it injects them, so the caller must not modify them before then;
// Delivered returns that same slice. A message addressed to its own
// source never enters the router, whose allocator would never serve the
// U-turn back out of the tile port: the next Step delivers it, stamped
// like any delivery.
func (n *Network) Send(msg Message) {
	if len(msg.Payload) == 0 {
		panic("benet: empty message")
	}
	src, dst := n.index(msg.Src), n.index(msg.Dst)
	msg.SentCycle = n.Cycle()
	n.pending++
	if src == dst {
		n.nodes[src].loop = append(n.nodes[src].loop, msg)
		return
	}
	// Messages are matched to arrivals in send order per destination.
	n.nodes[dst].inflight.push(msg)
	n.nodes[src].send.push(packet{route: HeadDataXY(msg.Dst), payload: msg.Payload})
}

// pump delivers node idx's self-addressed messages, injects the flits of
// its queued packets and collects the packets ejected there.
func (n *Network) pump(idx int) {
	nd := &n.nodes[idx]
	for _, m := range nd.loop {
		n.deliver(m)
	}
	clear(nd.loop)
	nd.loop = nd.loop[:0]
	r := n.routers[idx]
	for nd.send.len() > 0 {
		p := nd.send.front()
		if !r.Inject(p.flit()) {
			break
		}
		if p.next++; p.next > len(p.payload) {
			nd.send.pop()
		}
	}
	for _, f := range r.Drain() {
		if f.Kind.Closes() && nd.inflight.len() > 0 {
			n.deliver(nd.inflight.pop())
		}
	}
}

// deliver stamps m received in the current cycle and hands it to the next
// Delivered call.
func (n *Network) deliver(m Message) {
	m.RecvCycle = n.Cycle()
	n.pending--
	n.recv = append(n.recv, m)
}

// Step advances the network one cycle.
func (n *Network) Step() { n.world.Step() }

// Cycle returns the elapsed cycles.
func (n *Network) Cycle() uint64 { return n.world.Cycle() }

// Delivered returns the messages delivered since the last call. The
// slice is valid until the next call, which hands its buffer back to the
// network for reuse.
func (n *Network) Delivered() []Message {
	d := n.recv
	n.recv, n.handed = n.handed[:0], d
	return d
}

// Pending returns the number of messages sent and not yet delivered,
// whether still queued at their source or in the mesh.
func (n *Network) Pending() int { return n.pending }

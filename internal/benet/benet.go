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
// the given coordinate: first correct X (East/West), then Y (South/North),
// then eject at the tile port.
func RouteXY(here mesh.Coord) packetsw.RouteFunc {
	return func(head uint16) core.Port {
		dst := DecodeXY(head)
		switch {
		case dst.X > here.X:
			return core.East
		case dst.X < here.X:
			return core.West
		case dst.Y > here.Y:
			return core.South
		case dst.Y < here.Y:
			return core.North
		default:
			return core.Tile
		}
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

	sendQ    [][]packetsw.Flit // per node, flits waiting for injection
	inflight map[uint16][]Message
	// recv collects the deliveries since the last Delivered call; handed
	// is the buffer that call returned, which the next call reuses.
	recv, handed []Message
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
	n := &Network{
		W: w, H: h, P: p,
		world:    sim.NewWorld(wopts...),
		sendQ:    make([][]packetsw.Flit, w*h),
		inflight: make(map[uint16][]Message),
	}
	n.routers = make([]*packetsw.Router, w*h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			n.routers[y*w+x] = packetsw.NewRouter(p, RouteXY(mesh.Coord{X: x, Y: y}))
			n.world.Add(n.routers[y*w+x])
		}
	}
	// Wire links and credit returns in both directions.
	wire := func(a *packetsw.Router, aPort core.Port, b *packetsw.Router, bPort core.Port) {
		b.ConnectIn(bPort, &a.Out[aPort])
		a.ConnectCreditIn(aPort, &b.CreditOut[bPort])
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			r := n.Router(mesh.Coord{X: x, Y: y})
			if x+1 < w {
				e := n.Router(mesh.Coord{X: x + 1, Y: y})
				wire(r, core.East, e, core.West)
				wire(e, core.West, r, core.East)
			}
			if y+1 < h {
				s := n.Router(mesh.Coord{X: x, Y: y + 1})
				wire(r, core.South, s, core.North)
				wire(s, core.North, r, core.South)
			}
		}
	}
	// Injection and ejection glue per node. Pumps are first-class
	// components, not bare sim.Funcs, so the kernel can skip a node whose
	// injection queue is empty and whose router has nothing ejected.
	// Pumps are Quiescers but not Wakers: Send fills their queues
	// between steps, before the next cycle's poll.
	for i := range n.routers {
		n.world.Add(&pump{net: n, idx: i})
	}
	return n
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

// Quiescent implements sim.Quiescer: nothing queued for injection and
// nothing ejected awaiting drain. The router's own quiescence (and its
// Inject wake) covers flits in flight.
func (p *pump) Quiescent() bool {
	return len(p.net.sendQ[p.idx]) == 0 && p.net.routers[p.idx].EjectedPending() == 0
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
// packet (head flit with the XY address, one flit per payload word). VC 0
// carries all BE traffic in this model. Both endpoints must lie on the
// mesh: XY routing would carry a packet addressed beyond it off the mesh
// edge.
func (n *Network) Send(msg Message) {
	if len(msg.Payload) == 0 {
		panic("benet: empty message")
	}
	src := n.index(msg.Src)
	n.index(msg.Dst)
	msg.SentCycle = n.Cycle()
	// Messages are matched to arrivals in send order per destination.
	key := HeadDataXY(msg.Dst)
	n.inflight[key] = append(n.inflight[key], msg)
	n.sendQ[src] = packetsw.AppendPacket(n.sendQ[src], 0, key, msg.Payload)
}

// pump injects queued flits and collects ejected packets at node idx.
func (n *Network) pump(idx int) {
	r := n.routers[idx]
	for len(n.sendQ[idx]) > 0 && r.Inject(n.sendQ[idx][0]) {
		n.sendQ[idx] = n.sendQ[idx][1:]
	}
	here := mesh.Coord{X: idx % n.W, Y: idx / n.W}
	for _, f := range r.Drain() {
		if f.Kind.Closes() {
			n.complete(here)
		}
	}
}

// complete matches a finished packet at dst to the oldest in-flight
// message addressed there and records its delivery.
func (n *Network) complete(dst mesh.Coord) {
	key := HeadDataXY(dst)
	msgs := n.inflight[key]
	if len(msgs) == 0 {
		return
	}
	m := msgs[0]
	n.inflight[key] = msgs[1:]
	m.RecvCycle = n.Cycle()
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
func (n *Network) Pending() int {
	p := 0
	for _, msgs := range n.inflight {
		p += len(msgs)
	}
	return p
}

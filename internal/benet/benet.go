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
	"slices"
	"sort"

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
	sched   *scheduler

	sendQ    [][]packetsw.Flit // per node, flits waiting for injection
	inflight map[uint16][]Message
	recv     []Message
}

// New builds a W×H best-effort mesh with XY routing. World options select
// the simulation kernel (default: the production kernel, which skips
// routers with no buffered flits or arriving traffic).
func New(w, h int, p packetsw.Params, wopts ...sim.WorldOption) *Network {
	if w < 1 || h < 1 {
		panic(fmt.Sprintf("benet: invalid size %dx%d", w, h))
	}
	n := &Network{
		W: w, H: h, P: p,
		world:    sim.NewWorld(wopts...),
		sendQ:    make([][]packetsw.Flit, w*h),
		inflight: make(map[uint16][]Message),
	}
	// The burst scheduler releases SendAt messages at their due cycle. It
	// is registered first so a release is visible to every pump of the
	// same cycle, exactly like an external Send just before the step.
	n.sched = &scheduler{net: n}
	n.world.Add(n.sched)
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
		for v := 0; v < p.VCs; v++ {
			a.ConnectCreditIn(aPort, v, &b.CreditOut[bPort][v])
		}
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			r := n.router(mesh.Coord{X: x, Y: y})
			if x+1 < w {
				e := n.router(mesh.Coord{X: x + 1, Y: y})
				wire(r, core.East, e, core.West)
				wire(e, core.West, r, core.East)
			}
			if y+1 < h {
				s := n.router(mesh.Coord{X: x, Y: y + 1})
				wire(r, core.South, s, core.North)
				wire(s, core.North, r, core.South)
			}
		}
	}
	// Injection and ejection glue per node. Pumps are first-class
	// components, not bare sim.Funcs, so the kernel can skip a node whose
	// injection queue is empty and whose router has nothing ejected — on
	// a quiet mesh the whole world then quiesces and fast-forwards to the
	// next scheduled burst. Pumps are Quiescers but not Wakers: they are
	// registered after the scheduler, whose Eval fills their queues
	// before their poll in the same cycle's sweep.
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

// IdleWindow implements sim.IdleWindower: the pump keeps no per-cycle state,
// so idle replay is a no-op, declared explicitly to satisfy the Quiescer
// contract checked by nocvet.
func (p *pump) IdleWindow(n uint64) {}

// scheduler releases messages queued with SendAt when their cycle comes.
// It is the BE network's event source: quiescent between bursts, and a
// sim.Timed so the kernel knows the next release cycle and can
// fast-forward the idle window between configuration bursts instead of
// polling it cycle by cycle.
type scheduler struct {
	net     *Network
	pending []scheduledSend // sorted by cycle, insertion order within one
}

type scheduledSend struct {
	cycle uint64
	msg   Message
}

// Eval implements sim.Clocked: release every message due this cycle.
func (s *scheduler) Eval() {
	now := s.net.world.Cycle()
	for len(s.pending) > 0 && s.pending[0].cycle <= now {
		msg := s.pending[0].msg
		s.pending = s.pending[1:]
		s.net.Send(msg)
	}
}

// Commit implements sim.Clocked.
func (s *scheduler) Commit() {}

// Quiescent implements sim.Quiescer: no release is due this cycle.
func (s *scheduler) Quiescent() bool {
	return len(s.pending) == 0 || s.pending[0].cycle > s.net.world.Cycle()
}

// NextEvent implements sim.Timed: the earliest scheduled release.
func (s *scheduler) NextEvent() (uint64, bool) {
	if len(s.pending) == 0 {
		return 0, false
	}
	return s.pending[0].cycle, true
}

// IdleWindow implements sim.IdleWindower: between bursts the scheduler keeps
// no per-cycle state (pending releases are keyed by absolute cycle), so
// idle replay is a no-op, declared explicitly to satisfy the Quiescer
// contract checked by nocvet.
func (s *scheduler) IdleWindow(n uint64) {}

var (
	_ sim.Quiescer = (*pump)(nil)
	_ sim.Quiescer = (*scheduler)(nil)
	_ sim.Timed    = (*scheduler)(nil)
)

func (n *Network) router(c mesh.Coord) *packetsw.Router { return n.routers[c.Y*n.W+c.X] }

// Router exposes the BE router at a coordinate (e.g. to bind power meters).
func (n *Network) Router(c mesh.Coord) *packetsw.Router {
	if c.X < 0 || c.X >= n.W || c.Y < 0 || c.Y >= n.H {
		panic(fmt.Sprintf("benet: %v outside %dx%d", c, n.W, n.H))
	}
	return n.router(c)
}

// World returns the network's simulation world so callers can co-simulate
// stimulus.
func (n *Network) World() *sim.World { return n.world }

// Send queues a message for delivery; it is segmented into a wormhole
// packet (head flit with the XY address, one flit per payload word). VC 0
// carries all BE traffic in this model.
func (n *Network) Send(msg Message) {
	if len(msg.Payload) == 0 {
		panic("benet: empty message")
	}
	msg.SentCycle = n.Cycle()
	src := msg.Src.Y*n.W + msg.Src.X
	flits := packetsw.MakePacket(0, HeadDataXY(msg.Dst), msg.Payload)
	// Messages are matched to arrivals in send order per destination.
	key := HeadDataXY(msg.Dst)
	n.inflight[key] = append(n.inflight[key], msg)
	for i := range flits {
		flits[i].InjectCycle = n.Cycle()
	}
	n.sendQ[src] = append(n.sendQ[src], flits...)
}

// SendAt schedules a message for release at the given absolute cycle —
// the shape of the CCN's configuration bursts, which are planned ahead of
// time and sparse. Between releases the scheduler is quiescent and
// reports the next due cycle to the kernel, so the kernel fast-forwards
// the dead window instead of polling it. It panics on a
// cycle already in the past; the current cycle is allowed and releases on
// the next step.
func (n *Network) SendAt(cycle uint64, msg Message) {
	if len(msg.Payload) == 0 {
		panic("benet: empty message")
	}
	if cycle < n.Cycle() {
		panic(fmt.Sprintf("benet: SendAt(%d) is in the past (cycle %d)", cycle, n.Cycle()))
	}
	s := n.sched
	at := sort.Search(len(s.pending), func(i int) bool {
		return s.pending[i].cycle > cycle
	})
	s.pending = slices.Insert(s.pending, at, scheduledSend{cycle: cycle, msg: msg})
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

// Run advances the network n cycles through the world's kernel, which
// may fast-forward quiet windows between scheduled bursts.
func (n *Network) Run(cycles int) { n.world.Run(cycles) }

// Cycle returns the elapsed cycles.
func (n *Network) Cycle() uint64 { return n.world.Cycle() }

// Delivered returns and clears the messages delivered so far.
func (n *Network) Delivered() []Message {
	d := n.recv
	n.recv = nil
	return d
}

// Pending returns the number of messages not yet delivered, including
// SendAt messages still waiting for their release cycle.
func (n *Network) Pending() int {
	p := len(n.sched.pending)
	for _, msgs := range n.inflight {
		p += len(msgs)
	}
	for _, q := range n.sendQ {
		if len(q) > 0 {
			p++ // at least one message still queued at this node
		}
	}
	return p
}

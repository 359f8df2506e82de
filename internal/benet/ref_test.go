package benet

// This file keeps the best-effort network's queues as they were before
// they held packets, as the reference FuzzBENetQueue compares the
// production Network against: refNetwork segments each message into
// flits at Send with packetsw.AppendPacket, queues them per source in a
// slice popped by reslicing, and keeps the in-flight messages in lists
// in a map keyed by the destination's head-flit address. The method
// bodies are the old ones verbatim; the routers and their wiring are the
// production newMesh, which the rewrite left unchanged.

import (
	"repro/internal/mesh"
	"repro/internal/packetsw"
	"repro/internal/sim"
)

type refNetwork struct {
	W int

	routers []*packetsw.Router
	world   *sim.World

	sendQ    [][]packetsw.Flit // per node, flits waiting for injection
	inflight map[uint16][]Message
	// recv collects the deliveries since the last Delivered call; handed
	// is the buffer that call returned, which the next call reuses.
	recv, handed []Message
}

func newRefNetwork(w, h int, p packetsw.Params, wopts ...sim.WorldOption) *refNetwork {
	n := &refNetwork{
		W:        w,
		sendQ:    make([][]packetsw.Flit, w*h),
		inflight: make(map[uint16][]Message),
	}
	n.routers, n.world = newMesh(w, h, p, wopts)
	for i := range n.routers {
		n.world.Add(&refPump{net: n, idx: i})
	}
	return n
}

type refPump struct {
	net *refNetwork
	idx int
}

func (p *refPump) Eval()   { p.net.pump(p.idx) }
func (p *refPump) Commit() {}
func (p *refPump) Quiescent() bool {
	return len(p.net.sendQ[p.idx]) == 0 && p.net.routers[p.idx].EjectedPending() == 0
}
func (p *refPump) IdleWindow(n uint64) {}

func (n *refNetwork) Send(msg Message) {
	if len(msg.Payload) == 0 {
		panic("benet: empty message")
	}
	src := msg.Src.Y*n.W + msg.Src.X
	msg.SentCycle = n.Cycle()
	// Messages are matched to arrivals in send order per destination.
	key := HeadDataXY(msg.Dst)
	n.inflight[key] = append(n.inflight[key], msg)
	n.sendQ[src] = packetsw.AppendPacket(n.sendQ[src], 0, key, msg.Payload)
}

func (n *refNetwork) pump(idx int) {
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

func (n *refNetwork) complete(dst mesh.Coord) {
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

func (n *refNetwork) Step() { n.world.Step() }

func (n *refNetwork) Cycle() uint64 { return n.world.Cycle() }

func (n *refNetwork) Delivered() []Message {
	d := n.recv
	n.recv, n.handed = n.handed[:0], d
	return d
}

func (n *refNetwork) Pending() int {
	p := 0
	for _, msgs := range n.inflight {
		p += len(msgs)
	}
	return p
}

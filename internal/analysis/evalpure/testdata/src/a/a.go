// Package a is evalpure golden-test input: Eval methods that stay within
// their own component's state, and Eval methods that reach into another
// component's fields.
package a

// Latch is a plain value sub-struct, not a component.
type Latch struct{ V int }

// Peer is a component another component might wrongly write to.
type Peer struct {
	Credit int
	latch  Latch
	In     *int // an input register wired to a neighbour
}

func (p *Peer) Eval()   {}
func (p *Peer) Commit() {}

// Push is a staging mutator: calling it from a neighbour's Eval is the
// sanctioned pattern (paired with sim.Waker) and is not flagged.
func (p *Peer) Push(v int) { p.latch.V = v }

// R exercises the write rules.
type R struct {
	x     int
	latch Latch
	peer  *Peer
	peers []*Peer
	wire  *int // the register R drives, wired into a peer's input
}

func (r *R) Eval() {
	r.x = 1       // own field: allowed
	r.latch.V = 2 // own non-component sub-struct: allowed
	r.x++         // own field inc: allowed

	r.peer.Credit = 3     // want `Eval writes field Credit of another component \(Peer\)`
	r.peer.Credit++       // want `Eval writes field Credit of another component`
	r.peers[0].Credit = 4 // want `Eval writes field Credit of another component`
	r.peer.latch.V = 5    // want `Eval writes field V of another component`

	p := r.peer
	p.Credit = 6 // want `Eval writes field Credit of another component`

	p.Push(7) // mutator call, not a field write: allowed

	var local Latch
	local.V = 8 // local non-component: allowed
	_ = local

	r.peer.Credit = 9 //nocvet:allow evalpure -- config write, world not running

	*r.wire = 12        // want `Eval writes through pointer field wire`
	*r.wire++           // want `Eval writes through pointer field wire`
	*(r.wire) += 1      // want `Eval writes through pointer field wire`
	*r.peer.In = 13     // want `Eval writes through pointer field In`
	*r.peers[0].In = 14 // want `Eval writes through pointer field In`

	r.wire = &r.x // re-pointing the own field, no write through it: allowed
	w := r.wire
	*w = 15 // through a local pointer: not a field, allowed
	x := *r.wire
	_ = x // reading through the wire: allowed

	*r.wire = 16 //nocvet:allow evalpure -- reset before the world runs
}

// Commit may publish anywhere — only Eval is checked.
func (r *R) Commit() {
	r.peer.Credit = 10
	*r.wire = 17
}

// Eval on a non-component type (no Commit) is not checked.
type NotAComponent struct{ peer *Peer }

func (n *NotAComponent) Eval() {
	n.peer.Credit = 11
}

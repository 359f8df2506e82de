// Package mesh assembles circuit-switched routers into the paper's regular
// two-dimensional mesh topology (Section 1.1): every router is connected to
// its four neighbours by bidirectional point-to-point links (lane bundles in
// each direction) and to one processing tile through the tile interface.
//
// LaneBook is the mesh's one lane allocator: it reserves lane paths
// along the X-then-Y or Y-then-X route, configures and releases them and
// reports utilisation, for the CCN's channel mapping (package ccn) and
// for RunPattern's synthetic-traffic flows alike.
package mesh

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
)

// Coord addresses a node in the mesh. X grows eastward, Y grows southward.
type Coord struct {
	X, Y int
}

// String renders the coordinate.
func (c Coord) String() string { return fmt.Sprintf("(%d,%d)", c.X, c.Y) }

// Mesh is a W×H grid of circuit-switched router assemblies with all
// neighbour links wired.
type Mesh struct {
	// W and H are the grid dimensions.
	W, H int
	// P are the router parameters shared by all nodes.
	P core.Params

	nodes []*core.Assembly
	world *sim.World
}

// New builds a fully wired W×H mesh with the given per-node assembly
// options. World options select the simulation kernel: by default the
// production kernel skips unconfigured routers and parks them out of the
// sweep, which is what makes large sparsely loaded meshes cheap to
// simulate; pass sim.WithKernel(sim.KernelNaive) to force the
// evaluate-everything kernel.
func New(w, h int, p core.Params, opt core.AssemblyOptions, wopts ...sim.WorldOption) *Mesh {
	if w < 1 || h < 1 {
		panic(fmt.Sprintf("mesh: invalid size %dx%d", w, h))
	}
	m := &Mesh{W: w, H: h, P: p, world: sim.NewWorld(wopts...)}
	// All nodes are built in one call and registered in one, in
	// row-major order.
	m.nodes = core.NewAssemblies(w*h, p, opt)
	cs := make([]sim.Clocked, len(m.nodes))
	for i, a := range m.nodes {
		cs[i] = a
	}
	m.world.Add(cs...)
	// Wire neighbour links: East↔West and South↔North, lane by lane, data
	// forward and acknowledgement reverse.
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				m.wire(Coord{x, y}, core.East, Coord{x + 1, y}, core.West)
			}
			if y+1 < h {
				m.wire(Coord{x, y}, core.South, Coord{x, y + 1}, core.North)
			}
		}
	}
	// Assemblies park only as sim.Sleepers: one with any configured lane
	// or enabled converter watches its neighbour wires every cycle and
	// is never parked, while a dormant one certifies input-deafness and
	// parks until a staging mutator such as PushConfig wakes it —
	// committing neighbours stream past it without waking it.
	return m
}

// wire connects a's aPort output lanes to b's bPort input lanes and vice
// versa, including the reverse acknowledgement wires.
func (m *Mesh) wire(ac Coord, aPort core.Port, bc Coord, bPort core.Port) {
	a, b := m.At(ac), m.At(bc)
	for l := 0; l < m.P.LanesPerPort; l++ {
		ga := m.P.Global(core.LaneID{Port: aPort, Lane: l})
		gb := m.P.Global(core.LaneID{Port: bPort, Lane: l})
		// a -> b data; b -> a acknowledgement for that circuit direction.
		b.R.ConnectIn(gb, &a.R.Out[ga])
		a.R.ConnectAckIn(ga, &b.R.AckOut[gb])
		// b -> a data; a -> b acknowledgement.
		a.R.ConnectIn(ga, &b.R.Out[gb])
		b.R.ConnectAckIn(gb, &a.R.AckOut[ga])
	}
}

// At returns the assembly at the coordinate. It panics if out of range.
func (m *Mesh) At(c Coord) *core.Assembly {
	if !m.InBounds(c) {
		panic(fmt.Sprintf("mesh: %v outside %dx%d", c, m.W, m.H))
	}
	return m.nodes[c.Y*m.W+c.X]
}

// InBounds reports whether the coordinate lies in the grid.
func (m *Mesh) InBounds(c Coord) bool {
	return c.X >= 0 && c.X < m.W && c.Y >= 0 && c.Y < m.H
}

// Nodes returns the number of nodes.
func (m *Mesh) Nodes() int { return m.W * m.H }

// World returns the simulation world so callers can add stimulus
// components.
func (m *Mesh) World() *sim.World { return m.world }

// Step advances the whole mesh by one clock cycle.
func (m *Mesh) Step() { m.world.Step() }

// Run advances the mesh by n cycles.
func (m *Mesh) Run(n int) { m.world.Run(n) }

// Neighbour returns the coordinate adjacent to c through the given port
// and whether it exists. The tile port has no neighbour.
func (m *Mesh) Neighbour(c Coord, p core.Port) (Coord, bool) {
	switch p {
	case core.North, core.South, core.East, core.West:
		n := c.step(p)
		return n, m.InBounds(n)
	}
	return Coord{}, false
}

// step returns the coordinate one hop from c through a mesh port, in or
// out of any mesh; through the tile port it returns c.
func (c Coord) step(p core.Port) Coord {
	switch p {
	case core.North:
		c.Y--
	case core.South:
		c.Y++
	case core.East:
		c.X++
	case core.West:
		c.X--
	}
	return c
}

// routeOf returns the route from one coordinate to another, X first when
// xFirst, inclusive of both endpoints.
func routeOf(from, to Coord, xFirst bool) []Coord {
	dx, dy := to.X-from.X, to.Y-from.Y
	route := make([]Coord, 1, 1+max(dx, -dx)+max(dy, -dy))
	route[0] = from
	for c := from; c != to; {
		c = c.step(core.ExitPort(c.X, c.Y, to.X, to.Y, xFirst))
		route = append(route, c)
	}
	return route
}

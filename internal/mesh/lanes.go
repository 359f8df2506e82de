package mesh

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/obs"
)

// Segment is one router's contribution to a lane path.
type Segment struct {
	// Node is the router's coordinate.
	Node Coord
	// Circuit is the input→output lane connection configured there.
	Circuit core.Circuit
}

// LaneBook is the lane occupancy of one mesh and the one allocator of
// lane paths through it: the policy of the paper's Central Coordination
// Node (Section 1.1), which maps a channel onto parallel chains of lanes
// along the X-then-Y route, or else the Y-then-X one. Its owner — a
// ccn.Manager, or one RunPattern call — reserves, configures and
// releases paths through it and reads its utilisation.
type LaneBook struct {
	m *Mesh
	// out marks reserved output lanes, TotalLanes per node in row-major
	// node order; in marks reserved tile input lanes (transmit
	// converters), LanesPerPort per node.
	out, in []bool

	// Optional instruments (nil when metrics are disabled): routes
	// probed, requests rejected, hop counts of reserved routes.
	probes  *obs.Counter
	rejects *obs.Counter
	hops    *obs.Histogram
}

// NewLaneBook returns an empty book for the mesh. A non-nil registry
// receives the mesh.alloc.probes, mesh.alloc.rejections and
// mesh.alloc.hops instruments.
func NewLaneBook(m *Mesh, metrics *obs.Registry) *LaneBook {
	return &LaneBook{
		m:       m,
		out:     make([]bool, m.Nodes()*m.P.TotalLanes()),
		in:      make([]bool, m.Nodes()*m.P.LanesPerPort),
		probes:  metrics.Counter("mesh.alloc.probes"),
		rejects: metrics.Counter("mesh.alloc.rejections"),
		hops:    metrics.Histogram("mesh.alloc.hops"),
	}
}

// outIdx and inIdx locate a node's output lane and tile input lane.
func (b *LaneBook) outIdx(c Coord, l core.LaneID) int {
	return (c.Y*b.m.W+c.X)*b.m.P.TotalLanes() + b.m.P.Global(l)
}

func (b *LaneBook) inIdx(c Coord, lane int) int {
	return (c.Y*b.m.W+c.X)*b.m.P.LanesPerPort + lane
}

// freeLane returns the lowest free lane of the node's output port, or -1.
func (b *LaneBook) freeLane(c Coord, port core.Port) int {
	for l := 0; l < b.m.P.LanesPerPort; l++ {
		if !b.out[b.outIdx(c, core.LaneID{Port: port, Lane: l})] {
			return l
		}
	}
	return -1
}

// freeTileIn returns the lowest free tile input lane of the node, or -1.
func (b *LaneBook) freeTileIn(c Coord) int {
	for l := 0; l < b.m.P.LanesPerPort; l++ {
		if !b.in[b.inIdx(c, l)] {
			return l
		}
	}
	return -1
}

// freeEnds counts the free tile input lanes at src and the free tile
// output lanes at dst.
func (b *LaneBook) freeEnds(src, dst Coord) (ins, outs int) {
	for l := 0; l < b.m.P.LanesPerPort; l++ {
		if !b.in[b.inIdx(src, l)] {
			ins++
		}
		if !b.out[b.outIdx(dst, core.LaneID{Port: core.Tile, Lane: l})] {
			outs++
		}
	}
	return ins, outs
}

// freeLanes counts the free lanes of the node's output port.
func (b *LaneBook) freeLanes(c Coord, port core.Port) int {
	free := 0
	for l := 0; l < b.m.P.LanesPerPort; l++ {
		if !b.out[b.outIdx(c, core.LaneID{Port: port, Lane: l})] {
			free++
		}
	}
	return free
}

// Reserve reserves n parallel lane paths from src to dst, all or
// nothing, and returns the route taken (both endpoints included) and,
// per path, one Segment per router from src to dst. It tries the
// X-then-Y route first, then the Y-then-X one; each path takes the
// lowest free tile input at src, the lowest free lane on every hop and
// the lowest free tile output at dst. Nothing is configured: Configure
// applies the paths.
//
// Endpoint admission runs first: both routes start at src's tile inputs
// and end at dst's tile outputs, so a request that finds fewer than n of
// either free fails on any route. Rejecting it here costs O(1) instead
// of two O(route) probes, which matters in saturated pattern runs: in a
// 64×64 hotspot run ~4k flows fail at the hotspot's tile outputs.
//
// A route is probed before anything is reserved or built along it, and
// a rejection returns a *laneError that formats its message only when
// read, so a turned-away request allocates its error alone.
func (b *LaneBook) Reserve(src, dst Coord, n int) ([]Coord, [][]Segment, error) {
	if !b.m.InBounds(src) || !b.m.InBounds(dst) {
		return nil, nil, fmt.Errorf("mesh: endpoints %v->%v outside mesh", src, dst)
	}
	if src == dst {
		return nil, nil, fmt.Errorf("mesh: source and destination tile coincide")
	}
	if n < 1 {
		return nil, nil, fmt.Errorf("mesh: %d lane paths requested, need at least 1", n)
	}
	ins, outs := b.freeEnds(src, dst)
	if ins < n {
		b.rejects.Add(1)
		return nil, nil, &laneError{kind: noTileIn, at: src, free: ins, need: n}
	}
	if outs < n {
		b.rejects.Add(1)
		return nil, nil, &laneError{kind: noTileOut, at: dst, free: outs, need: n}
	}
	xFirst := true
	b.probes.Add(1)
	at, next, free := b.probe(src, dst, xFirst, n)
	if free < n {
		xFirst = false
		b.probes.Add(1)
		at, next, free = b.probe(src, dst, xFirst, n)
	}
	if free < n {
		b.rejects.Add(1)
		return nil, nil, &laneError{kind: noHopLane, at: at, to: next}
	}
	route := routeOf(src, dst, xFirst)
	paths := make([][]Segment, n)
	for i := range paths {
		paths[i] = b.reservePath(route, xFirst)
	}
	b.hops.Observe(uint64(len(route) - 1))
	return route, paths, nil
}

// probe walks the route from src to dst, X first when xFirst, and
// returns the hop whose port towards the next router has the fewest
// free lanes, the first such hop if several tie, and that count, or n
// when every hop has n or more. Paths are reserved one after another,
// each taking the lowest free lane on every hop, so path k runs out at
// the first hop with k or fewer free lanes: the first path to fail is
// path free, at the returned hop. Endpoint admission already holds the
// tile ports, so only the hops between routers are counted.
func (b *LaneBook) probe(src, dst Coord, xFirst bool, n int) (at, next Coord, free int) {
	free = n
	for c := src; c != dst; {
		port := core.ExitPort(c.X, c.Y, dst.X, dst.Y, xFirst)
		nc := c.step(port)
		if f := b.freeLanes(c, port); f < free {
			at, next, free = c, nc, f
		}
		c = nc
	}
	return at, next, free
}

// reservePath reserves one lane path along a route, X first when
// xFirst, that probe found room on: the lowest free tile input at the
// source, the lowest free lane on every hop and the lowest free tile
// output at the destination.
func (b *LaneBook) reservePath(route []Coord, xFirst bool) []Segment {
	src, dst := route[0], route[len(route)-1]
	tin := b.freeTileIn(src)
	b.in[b.inIdx(src, tin)] = true
	segs := make([]Segment, 0, len(route))
	in := core.LaneID{Port: core.Tile, Lane: tin}
	for _, node := range route {
		port := core.ExitPort(node.X, node.Y, dst.X, dst.Y, xFirst)
		l := b.freeLane(node, port)
		out := core.LaneID{Port: port, Lane: l}
		b.out[b.outIdx(node, out)] = true
		segs = append(segs, Segment{Node: node, Circuit: core.Circuit{In: in, Out: out}})
		if port != core.Tile {
			// The link wires lane l of this port to lane l of the
			// neighbour's opposite port; the tile port at dst has none.
			in = core.LaneID{Port: port.Opposite(), Lane: l}
		}
	}
	return segs
}

// laneErrorKind names what a lane-path request ran out of.
type laneErrorKind uint8

const (
	noTileIn  laneErrorKind = iota // free tile input lanes at the source
	noTileOut                      // free tile output lanes at the destination
	noHopLane                      // a free lane between two routers
)

// laneError is a lane-path request the book turned away. Error formats
// the message only when it is read: a saturated pattern run turns away
// most of its flows and reads none of the messages.
type laneError struct {
	kind       laneErrorKind
	at, to     Coord // the endpoint, or the hop's router and the next
	free, need int   // the endpoint's free lanes and the lanes requested
}

func (e *laneError) Error() string {
	switch e.kind {
	case noTileIn:
		return fmt.Sprintf("mesh: %d free tile input lanes at %v, need %d", e.free, e.at, e.need)
	case noTileOut:
		return fmt.Sprintf("mesh: %d free tile output lanes at %v, need %d", e.free, e.at, e.need)
	default:
		return fmt.Sprintf("mesh: no free lane %v -> %v", e.at, e.to)
	}
}

// free returns a path's lanes to the book: every output lane, and the
// tile input feeding its first segment.
func (b *LaneBook) free(path []Segment) {
	for i, seg := range path {
		b.out[b.outIdx(seg.Node, seg.Circuit.Out)] = false
		if i == 0 && seg.Circuit.In.Port == core.Tile {
			b.in[b.inIdx(seg.Node, seg.Circuit.In.Lane)] = false
		}
	}
}

// Configure stages the paths' circuits in their routers and enables the
// transmit converter feeding each path and the receive converter it
// ends in. The commands take effect at the next clock edge, as hardware
// configuration writes do.
func (b *LaneBook) Configure(paths [][]Segment) error {
	for _, path := range paths {
		for i, seg := range path {
			a := b.m.At(seg.Node)
			if err := a.R.Configure(seg.Circuit); err != nil {
				return err
			}
			if i == 0 && seg.Circuit.In.Port == core.Tile {
				a.Tx[seg.Circuit.In.Lane].SetEnabled(true)
			}
			if i == len(path)-1 && seg.Circuit.Out.Port == core.Tile {
				a.Rx[seg.Circuit.Out.Lane].SetEnabled(true)
			}
		}
	}
	return nil
}

// Release frees the paths' lanes, stages the deactivation of their
// output lanes in the routers and disables their end converters.
func (b *LaneBook) Release(paths [][]Segment) {
	for _, path := range paths {
		b.free(path)
		for i, seg := range path {
			a := b.m.At(seg.Node)
			a.R.Deactivate(seg.Circuit.Out)
			if i == 0 && seg.Circuit.In.Port == core.Tile {
				a.Tx[seg.Circuit.In.Lane].SetEnabled(false)
			}
			if i == len(path)-1 && seg.Circuit.Out.Port == core.Tile {
				a.Rx[seg.Circuit.Out.Lane].SetEnabled(false)
			}
		}
	}
}

// LinkUtilization returns the reserved fraction of the output lanes that
// feed inter-router links: tile ports and edge ports without a
// neighbour are excluded. Workload runs report this figure.
func (b *LaneBook) LinkUtilization() float64 {
	used, total := 0, 0
	for y := 0; y < b.m.H; y++ {
		for x := 0; x < b.m.W; x++ {
			c := Coord{X: x, Y: y}
			for p := core.North; p <= core.West; p++ {
				if _, ok := b.m.Neighbour(c, p); !ok {
					continue
				}
				for l := 0; l < b.m.P.LanesPerPort; l++ {
					total++
					if b.out[b.outIdx(c, core.LaneID{Port: p, Lane: l})] {
						used++
					}
				}
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(used) / float64(total)
}

// LaneUtilization returns the reserved fraction of every output lane of
// the mesh, tile ports and edge ports without a neighbour included.
// Circuit pattern runs report this figure.
func (b *LaneBook) LaneUtilization() float64 {
	used := 0
	for _, u := range b.out {
		if u {
			used++
		}
	}
	return float64(used) / float64(len(b.out))
}

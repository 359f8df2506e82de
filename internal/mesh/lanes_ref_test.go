package mesh

import (
	"fmt"

	"repro/internal/core"
)

// This file keeps the two lane allocators LaneBook replaced, as they
// were, for FuzzLaneReserve to check it against: refCCN is the CCN's
// multi-lane allocator with coordinate-keyed occupancy maps, refPattern
// the pattern harness's single-lane allocator with per-node slices and
// endpoint admission. Neither is used outside tests.

// refCCN is the CCN manager's allocation core: Allocate (less the
// bandwidth arithmetic, so it takes a lane count), Configure, Release
// and LinkUtilization.
type refCCN struct {
	m         *Mesh
	outUsed   map[Coord][]bool
	tileInUse map[Coord][]bool
}

// refConn is the part of a CCN connection the allocator fills in.
type refConn struct {
	Route    []Coord
	Segments [][]Segment
}

func newRefCCN(m *Mesh) *refCCN {
	return &refCCN{m: m, outUsed: make(map[Coord][]bool), tileInUse: make(map[Coord][]bool)}
}

func (g *refCCN) used(node Coord) []bool {
	u, ok := g.outUsed[node]
	if !ok {
		u = make([]bool, g.m.P.TotalLanes())
		g.outUsed[node] = u
	}
	return u
}

func (g *refCCN) tileIn(node Coord) []bool {
	u, ok := g.tileInUse[node]
	if !ok {
		u = make([]bool, g.m.P.LanesPerPort)
		g.tileInUse[node] = u
	}
	return u
}

func (g *refCCN) freeLane(node Coord, port core.Port) int {
	u := g.used(node)
	for l := 0; l < g.m.P.LanesPerPort; l++ {
		if !u[g.m.P.Global(core.LaneID{Port: port, Lane: l})] {
			return l
		}
	}
	return -1
}

func (g *refCCN) Allocate(src, dst Coord, lanes int) (*refConn, error) {
	if !g.m.InBounds(src) || !g.m.InBounds(dst) {
		return nil, fmt.Errorf("ccn: endpoints %v->%v outside mesh", src, dst)
	}
	if src == dst {
		return nil, fmt.Errorf("ccn: source and destination tile coincide")
	}
	routes := [][]Coord{xyPath(src, dst), refYXPath(src, dst)}
	var lastErr error
	for _, route := range routes {
		conn, err := g.tryAllocate(route, lanes)
		if err == nil {
			return conn, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

func (g *refCCN) tryAllocate(route []Coord, lanes int) (*refConn, error) {
	type reservation struct {
		node Coord
		lane int // global output lane, or -1 for a tile input
		tile int // tile input lane when lane == -1
	}
	var reserved []reservation
	release := func() {
		for _, r := range reserved {
			if r.lane >= 0 {
				g.used(r.node)[r.lane] = false
			} else {
				g.tileIn(r.node)[r.tile] = false
			}
		}
	}

	conn := &refConn{Route: route}
	for ln := 0; ln < lanes; ln++ {
		var segs []Segment
		srcNode := route[0]
		tin := -1
		for l, used := range g.tileIn(srcNode) {
			if !used {
				tin = l
				break
			}
		}
		if tin < 0 {
			release()
			return nil, fmt.Errorf("ccn: no free tile input lane at %v", srcNode)
		}
		g.tileIn(srcNode)[tin] = true
		reserved = append(reserved, reservation{node: srcNode, lane: -1, tile: tin})

		inLane := core.LaneID{Port: core.Tile, Lane: tin}
		for h := 0; h < len(route)-1; h++ {
			node, next := route[h], route[h+1]
			outPort, err := portTowards(node, next)
			if err != nil {
				release()
				return nil, err
			}
			l := g.freeLane(node, outPort)
			if l < 0 {
				release()
				return nil, fmt.Errorf("ccn: no free lane %v -> %v", node, next)
			}
			gl := g.m.P.Global(core.LaneID{Port: outPort, Lane: l})
			g.used(node)[gl] = true
			reserved = append(reserved, reservation{node: node, lane: gl})
			segs = append(segs, Segment{Node: node, Circuit: core.Circuit{
				In:  inLane,
				Out: core.LaneID{Port: outPort, Lane: l},
			}})
			inLane = core.LaneID{Port: outPort.Opposite(), Lane: l}
		}
		dstNode := route[len(route)-1]
		l := g.freeLane(dstNode, core.Tile)
		if l < 0 {
			release()
			return nil, fmt.Errorf("ccn: no free tile output lane at %v", dstNode)
		}
		gl := g.m.P.Global(core.LaneID{Port: core.Tile, Lane: l})
		g.used(dstNode)[gl] = true
		reserved = append(reserved, reservation{node: dstNode, lane: gl})
		segs = append(segs, Segment{Node: dstNode, Circuit: core.Circuit{
			In:  inLane,
			Out: core.LaneID{Port: core.Tile, Lane: l},
		}})
		conn.Segments = append(conn.Segments, segs)
	}
	return conn, nil
}

// refYXPath is the CCN's Y-then-X route, built from two XY legs.
func refYXPath(from, to Coord) []Coord {
	mid := Coord{X: from.X, Y: to.Y}
	path := xyPath(from, mid)
	rest := xyPath(mid, to)
	return append(path, rest[1:]...)
}

// xyPath is the X-then-Y route, inclusive of both endpoints, walked
// one coordinate at a time: X until it matches, then Y. It shares no
// code with core.ExitPort, the rule LaneBook routes by.
func xyPath(from, to Coord) []Coord {
	path := []Coord{from}
	for c := from; c != to; path = append(path, c) {
		switch {
		case c.X < to.X:
			c.X++
		case c.X > to.X:
			c.X--
		case c.Y < to.Y:
			c.Y++
		default:
			c.Y--
		}
	}
	return path
}

// portTowards returns the port of a that faces b, which must be an
// adjacent coordinate.
func portTowards(a, b Coord) (core.Port, error) {
	dx, dy := b.X-a.X, b.Y-a.Y
	switch {
	case dx == 1 && dy == 0:
		return core.East, nil
	case dx == -1 && dy == 0:
		return core.West, nil
	case dx == 0 && dy == 1:
		return core.South, nil
	case dx == 0 && dy == -1:
		return core.North, nil
	default:
		return 0, fmt.Errorf("mesh: %v and %v are not adjacent", a, b)
	}
}

func (g *refCCN) Configure(c *refConn) error {
	for _, lane := range c.Segments {
		for i, seg := range lane {
			a := g.m.At(seg.Node)
			if err := a.R.Configure(seg.Circuit); err != nil {
				return err
			}
			if i == 0 && seg.Circuit.In.Port == core.Tile {
				a.Tx[seg.Circuit.In.Lane].SetEnabled(true)
			}
			if i == len(lane)-1 && seg.Circuit.Out.Port == core.Tile {
				a.Rx[seg.Circuit.Out.Lane].SetEnabled(true)
			}
		}
	}
	return nil
}

func (g *refCCN) Release(c *refConn) {
	for _, lane := range c.Segments {
		for i, seg := range lane {
			a := g.m.At(seg.Node)
			a.R.Deactivate(seg.Circuit.Out)
			g.used(seg.Node)[g.m.P.Global(seg.Circuit.Out)] = false
			if i == 0 && seg.Circuit.In.Port == core.Tile {
				g.tileIn(seg.Node)[seg.Circuit.In.Lane] = false
				a.Tx[seg.Circuit.In.Lane].SetEnabled(false)
			}
			if i == len(lane)-1 && seg.Circuit.Out.Port == core.Tile {
				a.Rx[seg.Circuit.Out.Lane].SetEnabled(false)
			}
		}
	}
}

func (g *refCCN) LinkUtilization() float64 {
	used, total := 0, 0
	for y := 0; y < g.m.H; y++ {
		for x := 0; x < g.m.W; x++ {
			node := Coord{X: x, Y: y}
			for p := core.North; p <= core.West; p++ {
				if _, ok := g.m.Neighbour(node, p); !ok {
					continue
				}
				for l := 0; l < g.m.P.LanesPerPort; l++ {
					total++
					if g.used(node)[g.m.P.Global(core.LaneID{Port: p, Lane: l})] {
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

// refPattern is the pattern harness's single-lane allocator, less its
// metrics: establish reserves and configures one circuit per flow and
// never releases.
type refPattern struct {
	m      *Mesh
	used   [][]bool // per node, per global output lane
	tileIn [][]bool // per node, per tile input (transmit converter) lane
}

func newRefPattern(m *Mesh) *refPattern {
	a := &refPattern{m: m}
	for i := 0; i < m.Nodes(); i++ {
		a.used = append(a.used, make([]bool, m.P.TotalLanes()))
		a.tileIn = append(a.tileIn, make([]bool, m.P.LanesPerPort))
	}
	return a
}

func (a *refPattern) idx(c Coord) int { return c.Y*a.m.W + c.X }

func (a *refPattern) establish(src, dst Coord) (*core.TxConverter, *core.RxConverter, int, error) {
	if a.freeTileIn(src) < 0 {
		return nil, nil, 0, fmt.Errorf("mesh: no free tile input lane at %v", src)
	}
	if a.freeLane(dst, core.Tile) < 0 {
		return nil, nil, 0, fmt.Errorf("mesh: no free tile output lane at %v", dst)
	}
	routes := [][]Coord{xyPath(src, dst), refYXPath(src, dst)}
	var lastErr error
	for _, route := range routes {
		tx, rx, err := a.tryRoute(route)
		if err == nil {
			return tx, rx, len(route) - 1, nil
		}
		lastErr = err
	}
	return nil, nil, 0, lastErr
}

func (a *refPattern) tryRoute(route []Coord) (*core.TxConverter, *core.RxConverter, error) {
	type reservation struct {
		node int
		lane int // global output lane, or -1 for a tile input
		tin  int
	}
	var reserved []reservation
	release := func() {
		for _, r := range reserved {
			if r.lane >= 0 {
				a.used[r.node][r.lane] = false
			} else {
				a.tileIn[r.node][r.tin] = false
			}
		}
	}
	p := a.m.P

	srcIdx := a.idx(route[0])
	tin := a.freeTileIn(route[0])
	if tin < 0 {
		return nil, nil, fmt.Errorf("mesh: no free tile input lane at %v", route[0])
	}
	a.tileIn[srcIdx][tin] = true
	reserved = append(reserved, reservation{node: srcIdx, lane: -1, tin: tin})

	type seg struct {
		node Coord
		circ core.Circuit
	}
	var segs []seg
	inLane := core.LaneID{Port: core.Tile, Lane: tin}
	for h := 0; h < len(route)-1; h++ {
		node, next := route[h], route[h+1]
		outPort, err := portTowards(node, next)
		if err != nil {
			release()
			return nil, nil, err
		}
		l := a.freeLane(node, outPort)
		if l < 0 {
			release()
			return nil, nil, fmt.Errorf("mesh: no free lane %v -> %v", node, next)
		}
		gl := p.Global(core.LaneID{Port: outPort, Lane: l})
		a.used[a.idx(node)][gl] = true
		reserved = append(reserved, reservation{node: a.idx(node), lane: gl})
		segs = append(segs, seg{node: node, circ: core.Circuit{
			In:  inLane,
			Out: core.LaneID{Port: outPort, Lane: l},
		}})
		inLane = core.LaneID{Port: outPort.Opposite(), Lane: l}
	}
	dstC := route[len(route)-1]
	l := a.freeLane(dstC, core.Tile)
	if l < 0 {
		release()
		return nil, nil, fmt.Errorf("mesh: no free tile output lane at %v", dstC)
	}
	gl := p.Global(core.LaneID{Port: core.Tile, Lane: l})
	a.used[a.idx(dstC)][gl] = true
	reserved = append(reserved, reservation{node: a.idx(dstC), lane: gl})
	segs = append(segs, seg{node: dstC, circ: core.Circuit{
		In:  inLane,
		Out: core.LaneID{Port: core.Tile, Lane: l},
	}})

	for i, s := range segs {
		asm := a.m.At(s.node)
		if err := asm.R.Configure(s.circ); err != nil {
			release()
			return nil, nil, err
		}
		if i == 0 && s.circ.In.Port == core.Tile {
			asm.Tx[s.circ.In.Lane].SetEnabled(true)
		}
		if i == len(segs)-1 && s.circ.Out.Port == core.Tile {
			asm.Rx[s.circ.Out.Lane].SetEnabled(true)
		}
	}
	return a.m.At(route[0]).Tx[tin], a.m.At(dstC).Rx[l], nil
}

func (a *refPattern) freeTileIn(node Coord) int {
	for l, used := range a.tileIn[a.idx(node)] {
		if !used {
			return l
		}
	}
	return -1
}

func (a *refPattern) freeLane(node Coord, port core.Port) int {
	p := a.m.P
	for l := 0; l < p.LanesPerPort; l++ {
		if !a.used[a.idx(node)][p.Global(core.LaneID{Port: port, Lane: l})] {
			return l
		}
	}
	return -1
}

func (a *refPattern) utilization() float64 {
	total, used := 0, 0
	for _, lanes := range a.used {
		for _, u := range lanes {
			total++
			if u {
				used++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(used) / float64(total)
}

// Package ccn implements the Central Coordination Node of the paper's SoC
// (Section 1.1): the node that manages system resources, performs run-time
// mapping of applications to processing tiles, maps inter-process
// communication onto concatenations of network links (lane paths through
// the circuit-switched mesh), checks quality-of-service feasibility and
// configures the routers — before an application starts, never during its
// execution.
//
// Configuration commands (10 bits per lane, Section 5.1) travel over the
// best-effort network; the paper budgets less than 1 ms per lane and a full
// router reconfiguration within 20 ms. The Manager can apply configurations
// either instantaneously (functional mode) or through a benet.Network
// (timing mode), which the setup-latency experiment uses.
package ccn

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/mesh"
)

// Connection is one allocated guaranteed-throughput connection: a bundle
// of parallel lane paths from a source tile to a destination tile.
type Connection struct {
	// ID is the handle returned by Allocate.
	ID int
	// Src and Dst are the endpoints.
	Src, Dst mesh.Coord
	// BandwidthMbps is the requested bandwidth.
	BandwidthMbps float64
	// Lanes is the number of parallel lane paths allocated (ganged lanes
	// for channels beyond one lane's data rate).
	Lanes int
	// Route is the node sequence, inclusive of both endpoints.
	Route []mesh.Coord
	// Segments holds, per lane path and per hop, the circuit configured
	// in that hop's router.
	Segments [][]Segment
}

// Segment is one router's contribution to a lane path.
type Segment struct {
	// Node is the router's coordinate.
	Node mesh.Coord
	// Circuit is the input→output lane connection configured there.
	Circuit core.Circuit
}

// Cmds flattens the connection into per-router configuration commands.
func (c *Connection) Cmds(p core.Params) ([]RouterCmd, error) {
	var out []RouterCmd
	for _, lane := range c.Segments {
		for _, seg := range lane {
			cmd, err := seg.Circuit.Cmd(p)
			if err != nil {
				return nil, err
			}
			out = append(out, RouterCmd{Node: seg.Node, Cmd: cmd})
		}
	}
	return out, nil
}

// RouterCmd addresses one configuration command to one router.
type RouterCmd struct {
	// Node is the target router.
	Node mesh.Coord
	// Cmd is the 10-bit configuration command.
	Cmd core.ConfigCmd
}

// Manager is the CCN: it owns the lane occupancy bookkeeping of a mesh and
// allocates, configures and releases connections.
type Manager struct {
	m       *mesh.Mesh
	freqMHz float64

	// outUsed[node][globalLane] marks output lanes in use; tileInUsed
	// marks tile input lanes (transmit converters).
	outUsed   map[mesh.Coord][]bool
	tileInUse map[mesh.Coord][]bool

	nextID int
	conns  map[int]*Connection

	// busyTiles maps occupied tiles to the process they host.
	busyTiles map[mesh.Coord]string
	// tileKinds records each tile's processor type in the heterogeneous
	// SoC (DSP, FPGA, ASIC, GPP, DSRH). Empty means unconstrained.
	tileKinds map[mesh.Coord]string
}

// SetTileKind declares the processor type of a tile. Processes whose Kind
// hint is non-empty are only placed on tiles of that kind — the paper's
// heterogeneous SoC, where the CCN maps each process "on the tiles that
// can execute it most efficiently".
func (g *Manager) SetTileKind(c mesh.Coord, kind string) {
	if !g.m.InBounds(c) {
		panic(fmt.Sprintf("ccn: %v outside mesh", c))
	}
	if g.tileKinds == nil {
		g.tileKinds = make(map[mesh.Coord]string)
	}
	g.tileKinds[c] = kind
}

// TileKind returns a tile's declared processor type ("" = unconstrained).
func (g *Manager) TileKind(c mesh.Coord) string { return g.tileKinds[c] }

// kindOK reports whether a process with the given kind hint may run on
// tile c: an empty hint runs anywhere; an empty tile kind accepts
// anything (an unconstrained mesh); otherwise the kinds must match.
func (g *Manager) kindOK(processKind string, c mesh.Coord) bool {
	if processKind == "" {
		return true
	}
	tk := g.tileKinds[c]
	return tk == "" || tk == processKind
}

// NewManager returns a CCN for the mesh, with the network clock used for
// bandwidth feasibility checks. It panics unless the clock is finite and
// positive.
func NewManager(m *mesh.Mesh, freqMHz float64) *Manager {
	if !(freqMHz > 0) || math.IsInf(freqMHz, 1) {
		panic(fmt.Sprintf("ccn: frequency %v MHz must be finite and positive", freqMHz))
	}
	mgr := &Manager{
		m:         m,
		freqMHz:   freqMHz,
		outUsed:   make(map[mesh.Coord][]bool),
		tileInUse: make(map[mesh.Coord][]bool),
		conns:     make(map[int]*Connection),
		nextID:    1,
	}
	return mgr
}

// LaneRateMbps returns the usable data rate of one lane at the network
// clock (80 Mbit/s at 25 MHz).
func (g *Manager) LaneRateMbps() float64 {
	return core.LaneDataRateMbps(g.m.P, g.freqMHz)
}

// LanesFor returns the number of ganged lanes needed for the bandwidth.
func (g *Manager) LanesFor(bandwidthMbps float64) int {
	if bandwidthMbps <= 0 {
		return 1
	}
	return int(math.Ceil(bandwidthMbps / g.LaneRateMbps()))
}

// Feasible reports whether a connection of the given bandwidth can exist
// at all on this mesh geometry (enough lanes per link), before considering
// current occupancy.
func (g *Manager) Feasible(bandwidthMbps float64) error {
	need := g.LanesFor(bandwidthMbps)
	if need > g.m.P.LanesPerPort {
		return fmt.Errorf(
			"ccn: %.0f Mbit/s needs %d lanes, links have %d (lane rate %.0f Mbit/s at %.0f MHz)",
			bandwidthMbps, need, g.m.P.LanesPerPort, g.LaneRateMbps(), g.freqMHz)
	}
	return nil
}

func (g *Manager) used(node mesh.Coord) []bool {
	u, ok := g.outUsed[node]
	if !ok {
		u = make([]bool, g.m.P.TotalLanes())
		g.outUsed[node] = u
	}
	return u
}

func (g *Manager) tileIn(node mesh.Coord) []bool {
	u, ok := g.tileInUse[node]
	if !ok {
		u = make([]bool, g.m.P.LanesPerPort)
		g.tileInUse[node] = u
	}
	return u
}

// freeLane returns the lowest free lane index on the given output port of
// node, or -1.
func (g *Manager) freeLane(node mesh.Coord, port core.Port) int {
	u := g.used(node)
	for l := 0; l < g.m.P.LanesPerPort; l++ {
		if !u[g.m.P.Global(core.LaneID{Port: port, Lane: l})] {
			return l
		}
	}
	return -1
}

// Allocate finds lane paths for a connection and records the resources,
// without configuring any router yet; Configure or ConfigureVia applies
// it. Allocation tries the X-then-Y route first, then Y-then-X (the lane
// structure exists precisely to reduce the blocking Wiklund observed in
// single-circuit links). It fails if either route lacks free lanes.
func (g *Manager) Allocate(src, dst mesh.Coord, bandwidthMbps float64) (*Connection, error) {
	if !g.m.InBounds(src) || !g.m.InBounds(dst) {
		return nil, fmt.Errorf("ccn: endpoints %v->%v outside mesh", src, dst)
	}
	if src == dst {
		return nil, fmt.Errorf("ccn: source and destination tile coincide")
	}
	if err := g.Feasible(bandwidthMbps); err != nil {
		return nil, err
	}
	lanes := g.LanesFor(bandwidthMbps)

	routes := [][]mesh.Coord{mesh.XYPath(src, dst), yxPath(src, dst)}
	var lastErr error
	for _, route := range routes {
		conn, err := g.tryAllocate(route, lanes, bandwidthMbps)
		if err == nil {
			conn.ID = g.nextID
			g.nextID++
			g.conns[conn.ID] = conn
			return conn, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

// tryAllocate attempts to reserve `lanes` parallel lane paths along route.
// On failure nothing is reserved.
func (g *Manager) tryAllocate(route []mesh.Coord, lanes int, bw float64) (*Connection, error) {
	type reservation struct {
		node mesh.Coord
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

	conn := &Connection{
		Src: route[0], Dst: route[len(route)-1],
		BandwidthMbps: bw, Lanes: lanes, Route: route,
	}
	for ln := 0; ln < lanes; ln++ {
		var segs []Segment
		// Source tile input lane (transmit converter).
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
			outPort, err := mesh.PortTowards(node, next)
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
			// The link wires lane l of this port to lane l of the
			// neighbour's opposite port.
			inLane = core.LaneID{Port: outPort.Opposite(), Lane: l}
		}
		// Destination tile output lane (receive converter).
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

// yxPath is the Y-then-X alternative to mesh.XYPath.
func yxPath(from, to mesh.Coord) []mesh.Coord {
	mid := mesh.Coord{X: from.X, Y: to.Y}
	path := mesh.XYPath(from, mid) // pure Y movement
	rest := mesh.XYPath(mid, to)   // pure X movement
	return append(path, rest[1:]...)
}

// Configure applies the connection's commands directly to the routers
// (functional mode) and enables the terminating converters. The commands
// take effect at the next clock edge, as hardware configuration writes do.
func (g *Manager) Configure(c *Connection) error {
	for _, lane := range c.Segments {
		for i, seg := range lane {
			a := g.m.At(seg.Node)
			if err := a.R.Configure(seg.Circuit); err != nil {
				return err
			}
			if i == 0 && seg.Circuit.In.Port == core.Tile {
				a.Tx[seg.Circuit.In.Lane].Enabled = true
			}
			if i == len(lane)-1 && seg.Circuit.Out.Port == core.Tile {
				a.Rx[seg.Circuit.Out.Lane].Enabled = true
			}
		}
	}
	return nil
}

// Release frees the connection's lanes and stages deactivation commands in
// the affected routers.
func (g *Manager) Release(id int) error {
	c, ok := g.conns[id]
	if !ok {
		return fmt.Errorf("ccn: unknown connection %d", id)
	}
	for _, lane := range c.Segments {
		for i, seg := range lane {
			a := g.m.At(seg.Node)
			a.R.Deactivate(seg.Circuit.Out)
			g.used(seg.Node)[g.m.P.Global(seg.Circuit.Out)] = false
			if i == 0 && seg.Circuit.In.Port == core.Tile {
				g.tileIn(seg.Node)[seg.Circuit.In.Lane] = false
				a.Tx[seg.Circuit.In.Lane].Enabled = false
			}
			if i == len(lane)-1 && seg.Circuit.Out.Port == core.Tile {
				a.Rx[seg.Circuit.Out.Lane].Enabled = false
			}
		}
	}
	delete(g.conns, id)
	return nil
}

// Connections returns the live connection IDs in ascending order.
func (g *Manager) Connections() []int {
	ids := make([]int, 0, len(g.conns))
	for id := range g.conns {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// Connection returns a live connection by ID.
func (g *Manager) Connection(id int) (*Connection, bool) {
	c, ok := g.conns[id]
	return c, ok
}

// LinkUtilization returns the fraction of output lanes in use across all
// inter-router links (tile ports excluded).
func (g *Manager) LinkUtilization() float64 {
	used, total := 0, 0
	for y := 0; y < g.m.H; y++ {
		for x := 0; x < g.m.W; x++ {
			node := mesh.Coord{X: x, Y: y}
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

// Package ccn implements the Central Coordination Node of the paper's SoC
// (Section 1.1): the node that manages system resources, performs run-time
// mapping of applications to processing tiles, maps inter-process
// communication onto concatenations of network links (lane paths through
// the circuit-switched mesh), checks quality-of-service feasibility and
// configures the routers — before an application starts, never during its
// execution. The lane paths themselves are reserved, configured and
// released through the mesh's mesh.LaneBook; the Manager adds the
// bandwidth-to-lanes arithmetic, connection IDs and application mapping.
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
	Segments [][]mesh.Segment
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

// Manager is the CCN: it owns the mesh's lane book and allocates,
// configures and releases connections through it, adding what the CCN
// decides on top of lane paths — lanes per bandwidth, connection IDs and
// application mapping.
type Manager struct {
	m       *mesh.Mesh
	freqMHz float64
	lanes   *mesh.LaneBook

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
	return &Manager{
		m:       m,
		freqMHz: freqMHz,
		lanes:   mesh.NewLaneBook(m, nil),
		conns:   make(map[int]*Connection),
		nextID:  1,
	}
}

// LaneRateMbps returns the usable data rate of one lane at the network
// clock (80 Mbit/s at 25 MHz).
func (g *Manager) LaneRateMbps() float64 {
	return core.LaneDataRateMbps(g.m.P, g.freqMHz)
}

// LanesFor returns the number of ganged lanes needed for a bandwidth
// that Feasible accepts; zero or less needs one lane.
func (g *Manager) LanesFor(bandwidthMbps float64) int {
	if bandwidthMbps <= 0 {
		return 1
	}
	return int(math.Ceil(bandwidthMbps / g.LaneRateMbps()))
}

// Feasible reports whether a connection of the given bandwidth can exist
// at all on this mesh geometry (enough lanes per link), before considering
// current occupancy. It decides in floating point, so a NaN, infinite or
// huge bandwidth fails here instead of wrapping in LanesFor's int
// conversion.
func (g *Manager) Feasible(bandwidthMbps float64) error {
	if math.IsNaN(bandwidthMbps) || math.IsInf(bandwidthMbps, 0) {
		return fmt.Errorf("ccn: bandwidth %v Mbit/s must be finite", bandwidthMbps)
	}
	if need := bandwidthMbps / g.LaneRateMbps(); need > float64(g.m.P.LanesPerPort) {
		return fmt.Errorf(
			"ccn: %.0f Mbit/s needs %.0f lanes, links have %d (lane rate %.0f Mbit/s at %.0f MHz)",
			bandwidthMbps, math.Ceil(need), g.m.P.LanesPerPort, g.LaneRateMbps(), g.freqMHz)
	}
	return nil
}

// Allocate reserves lane paths for a connection in the mesh's lane book
// (mesh.LaneBook.Reserve: the X-then-Y route first, then Y-then-X; the
// lane structure exists precisely to reduce the blocking Wiklund
// observed in single-circuit links), without configuring any router
// yet; Configure or a BEConfigurator applies it. It fails if the bandwidth
// is infeasible or both routes lack free lanes.
func (g *Manager) Allocate(src, dst mesh.Coord, bandwidthMbps float64) (*Connection, error) {
	if err := g.Feasible(bandwidthMbps); err != nil {
		return nil, err
	}
	lanes := g.LanesFor(bandwidthMbps)
	route, paths, err := g.lanes.Reserve(src, dst, lanes)
	if err != nil {
		return nil, err
	}
	conn := &Connection{
		ID: g.nextID, Src: src, Dst: dst,
		BandwidthMbps: bandwidthMbps, Lanes: lanes,
		Route: route, Segments: paths,
	}
	g.nextID++
	g.conns[conn.ID] = conn
	return conn, nil
}

// Configure applies the connection's commands directly to the routers
// (functional mode) and enables the terminating converters. The commands
// take effect at the next clock edge, as hardware configuration writes do.
func (g *Manager) Configure(c *Connection) error { return g.lanes.Configure(c.Segments) }

// Release frees the connection's lanes and stages deactivation commands in
// the affected routers.
func (g *Manager) Release(id int) error {
	c, ok := g.conns[id]
	if !ok {
		return fmt.Errorf("ccn: unknown connection %d", id)
	}
	g.lanes.Release(c.Segments)
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
func (g *Manager) LinkUtilization() float64 { return g.lanes.LinkUtilization() }

package ccn

import (
	"fmt"
	"sort"

	"repro/internal/kpn"
	"repro/internal/mesh"
)

// Mapping is the result of the CCN's run-time application mapping: a
// placement of processes on tiles and one configured connection per
// guaranteed-throughput channel.
type Mapping struct {
	// Graph is the mapped application.
	Graph *kpn.Graph
	// Placement assigns each process to a tile.
	Placement map[string]mesh.Coord
	// Connections holds the allocated connection per GT channel name.
	Connections map[string]*Connection
}

// TotalHops sums the router hops of all connections, a locality metric.
func (mp *Mapping) TotalHops() int {
	h := 0
	for _, c := range mp.Connections {
		h += len(c.Route) - 1
	}
	return h
}

// MapApplication performs the CCN's feasibility analysis, spatial mapping,
// connection allocation and router configuration for an application graph
// (Section 1.1). Placement is greedy: processes in descending order of
// connected bandwidth, each placed on the free tile that minimizes the
// hop×bandwidth product to its already-placed neighbours. All GT channels
// are then allocated as lane paths and configured directly.
//
// Tiles already hosting a process from a previous mapping are not reused,
// so several applications can be mapped onto one mesh (the paper's
// multi-mode terminal sharing resources between standards).
func (g *Manager) MapApplication(graph *kpn.Graph) (*Mapping, error) {
	if err := graph.Validate(); err != nil {
		return nil, err
	}
	if g.busyTiles == nil {
		g.busyTiles = make(map[mesh.Coord]string)
	}
	free := 0
	for y := 0; y < g.m.H; y++ {
		for x := 0; x < g.m.W; x++ {
			if _, busy := g.busyTiles[mesh.Coord{X: x, Y: y}]; !busy {
				free++
			}
		}
	}
	if free < len(graph.Processes) {
		return nil, fmt.Errorf("ccn: %d processes but only %d free tiles",
			len(graph.Processes), free)
	}
	// Feasibility: every channel must fit the lane geometry.
	for _, ch := range graph.GTChannels() {
		if err := g.Feasible(ch.BandwidthMbps); err != nil {
			return nil, fmt.Errorf("ccn: channel %q infeasible: %w", ch.Name, err)
		}
	}

	// Order processes by connected GT bandwidth, heaviest first.
	procs := make([]string, len(graph.Processes))
	weight := map[string]float64{}
	for i, p := range graph.Processes {
		procs[i] = p.Name
		for _, ch := range graph.GTChannels() {
			if ch.From == p.Name || ch.To == p.Name {
				weight[p.Name] += ch.BandwidthMbps
			}
		}
	}
	sort.SliceStable(procs, func(i, j int) bool { return weight[procs[i]] > weight[procs[j]] })

	mp := &Mapping{
		Graph:       graph,
		Placement:   map[string]mesh.Coord{},
		Connections: map[string]*Connection{},
	}
	for _, name := range procs {
		proc, _ := graph.Process(name)
		best, bestCost := mesh.Coord{}, -1.0
		for y := 0; y < g.m.H; y++ {
			for x := 0; x < g.m.W; x++ {
				c := mesh.Coord{X: x, Y: y}
				if _, busy := g.busyTiles[c]; busy {
					continue
				}
				if !g.kindOK(proc.Kind, c) {
					continue
				}
				cost := g.placementCost(graph, mp.Placement, name, c)
				if bestCost < 0 || cost < bestCost {
					best, bestCost = c, cost
				}
			}
		}
		if bestCost < 0 {
			// No suitable tile: roll back the partial placement.
			for n, c := range mp.Placement {
				if g.busyTiles[c] == n {
					delete(g.busyTiles, c)
				}
			}
			return nil, fmt.Errorf(
				"ccn: no free %q tile for process %q (heterogeneous feasibility)",
				proc.Kind, name)
		}
		mp.Placement[name] = best
		g.busyTiles[best] = name
	}

	// Allocate and configure every GT channel; roll back on failure.
	rollback := func() {
		for _, c := range mp.Connections {
			_ = g.Release(c.ID)
		}
		for name, c := range mp.Placement {
			if g.busyTiles[c] == name {
				delete(g.busyTiles, c)
			}
		}
	}
	for _, ch := range graph.GTChannels() {
		src, dst := mp.Placement[ch.From], mp.Placement[ch.To]
		conn, err := g.Allocate(src, dst, ch.BandwidthMbps)
		if err != nil {
			rollback()
			return nil, fmt.Errorf("ccn: allocating channel %q: %w", ch.Name, err)
		}
		if err := g.Configure(conn); err != nil {
			rollback()
			return nil, fmt.Errorf("ccn: configuring channel %q: %w", ch.Name, err)
		}
		mp.Connections[ch.Name] = conn
	}
	return mp, nil
}

// placementCost is the hop×bandwidth cost of putting process name at c,
// counting channels to already-placed processes; unplaced neighbours pull
// the process towards the mesh centre.
func (g *Manager) placementCost(graph *kpn.Graph, placed map[string]mesh.Coord,
	name string, c mesh.Coord) float64 {
	cost := 0.0
	for _, ch := range graph.GTChannels() {
		var other string
		switch name {
		case ch.From:
			other = ch.To
		case ch.To:
			other = ch.From
		default:
			continue
		}
		if oc, ok := placed[other]; ok {
			cost += float64(manhattan(c, oc)) * ch.BandwidthMbps
		} else {
			// Mild centre pull so chains don't start in a corner.
			cost += 0.01 * ch.BandwidthMbps *
				(absf(float64(c.X)-float64(g.m.W-1)/2) + absf(float64(c.Y)-float64(g.m.H-1)/2))
		}
	}
	return cost
}

// UnmapApplication releases a mapping's connections and frees its tiles.
func (g *Manager) UnmapApplication(mp *Mapping) error {
	for _, c := range mp.Connections {
		if err := g.Release(c.ID); err != nil {
			return err
		}
	}
	for name, c := range mp.Placement {
		if g.busyTiles[c] == name {
			delete(g.busyTiles, c)
		}
	}
	return nil
}

func manhattan(a, b mesh.Coord) int {
	return abs(a.X-b.X) + abs(a.Y-b.Y)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

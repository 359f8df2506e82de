package noc

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/ccn"
	"repro/internal/core"
	"repro/internal/mesh"
)

// Network is a persistent circuit-switched NoC whose lane allocation
// outlives a single run: applications can be mapped, torn down and
// re-mapped while other mappings keep their circuits — the run-time
// reconfiguration of the paper's Section 1 ("due to changes in the
// reception quality" the CCN re-maps a rake receiver on the fly).
// Released lanes are immediately reusable; circuits of concurrent
// mappings never interact because they occupy physically separate
// lanes.
//
// Network manages allocation state; to measure traffic, power and
// latency of a fixed set of workloads, use a workload Scenario on the
// CircuitSwitched fabric instead.
type Network struct {
	mgr   *ccn.Manager
	tiles int
	maps  map[int]*ccn.Mapping
	next  int
}

// Mapping describes one application currently mapped on a Network.
type Mapping struct {
	// ID is the handle for Unmap.
	ID int `json:"id"`
	// Workload names the application (as given to Map).
	Workload string `json:"workload"`
	// Channels and LanePaths count the allocated GT connections and
	// lane paths.
	Channels  int `json:"channels"`
	LanePaths int `json:"lane_paths"`
	// Placements assigns each process to its tile.
	Placements []Placement `json:"placements"`
}

// NewNetwork builds a W×H circuit-switched mesh, from 2×2 up to 65,536
// nodes, with its Central Coordination Node at the given clock, which
// must be finite and positive.
func NewNetwork(w, h int, freqMHz float64) (*Network, error) {
	if err := checkMesh(w, h); err != nil {
		return nil, fmt.Errorf("noc: network %w", err)
	}
	if !(freqMHz > 0) || math.IsInf(freqMHz, 1) {
		return nil, fmt.Errorf("noc: network frequency %v MHz must be finite and positive", freqMHz)
	}
	m := mesh.New(w, h, core.DefaultParams(), core.DefaultAssemblyOptions())
	return &Network{
		mgr:   ccn.NewManager(m, freqMHz),
		tiles: m.Nodes(),
		maps:  map[int]*ccn.Mapping{},
	}, nil
}

// Map places a workload ("hiperlan2", "umts", "umts:N", "drm") onto the
// mesh: the CCN assigns processes to tiles and allocates guaranteed-
// throughput lane paths for every channel. It fails — leaving existing
// mappings untouched — when tiles or lanes run out.
func (n *Network) Map(workload string) (Mapping, error) {
	graph, err := workloadGraph(workload, n.tiles)
	if err != nil {
		return Mapping{}, err
	}
	mp, err := n.mgr.MapApplication(graph)
	if err != nil {
		return Mapping{}, fmt.Errorf("noc: mapping %s: %w", workload, err)
	}
	n.next++
	n.maps[n.next] = mp
	info := Mapping{
		ID:       n.next,
		Workload: workload,
		Channels: len(mp.Connections),
	}
	for _, c := range mp.Connections {
		info.LanePaths += c.Lanes
	}
	info.Placements = placementsOf(workload, mp)
	return info, nil
}

// Unmap releases a mapping's circuits and tiles; the freed lanes are
// immediately available to the next Map.
func (n *Network) Unmap(id int) error {
	mp, ok := n.maps[id]
	if !ok {
		return fmt.Errorf("noc: unknown mapping %d", id)
	}
	if err := n.mgr.UnmapApplication(mp); err != nil {
		return err
	}
	delete(n.maps, id)
	return nil
}

// Mappings returns the currently mapped application handles, ordered by
// ID.
func (n *Network) Mappings() []int {
	out := make([]int, 0, len(n.maps))
	for id := range n.maps {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// LinkUtilization returns the fraction of the mesh's lane capacity
// currently allocated.
func (n *Network) LinkUtilization() float64 { return n.mgr.LinkUtilization() }

// LaneRateMbps returns the data rate one lane carries at the network
// clock.
func (n *Network) LaneRateMbps() float64 { return n.mgr.LaneRateMbps() }

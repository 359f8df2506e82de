// Command meshgrid is the large-mesh placement stress example: a sweep
// over mesh sizes up to 16×16 that maps all three wireless applications
// concurrently via the CCN and reports placement, link utilization and
// the per-router power attribution. The idle majority of a 256-node mesh
// made runs like this expensive under per-cycle simulation; the
// production kernel's activity tracking, parking and fast-forward make
// the grid axis affordable, which is exactly why the sweep spec grew it.
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"repro/noc"
)

func main() {
	spec := noc.SweepSpec{
		Name:    "meshgrid",
		Fabrics: []noc.FabricSpec{{Kind: noc.KindCircuit, Gated: true}},
		Grid: &noc.Grid{
			// All three applications of the paper's Section 3, mapped
			// concurrently — the CCN places processes and allocates
			// guaranteed-throughput lane paths on every mesh size.
			Workloads: []string{"hiperlan2,umts,drm"},
			MeshSizes: []int{4, 8, 16},
			// 200 MHz raises the lane rate so HiperLAN/2's 640 Mbit/s
			// channel fits the 4-lane links (as in the hiperlan2 example).
			FreqsMHz: []float64{200},
			Cycles:   []int{20000},
		},
		Seed: 1,
	}

	cells, err := noc.SweepAll(context.Background(), spec)
	if err != nil {
		log.Fatal(err)
	}
	for _, cell := range cells {
		if cell.Error != "" {
			fmt.Printf("%s: %s\n", cell.Scenario.Name, cell.Error)
			continue
		}
		r := cell.Result
		fmt.Printf("\n=== %s (%dx%d mesh) ===\n",
			cell.Scenario.Name, cell.Scenario.MeshWidth, cell.Scenario.MeshHeight)
		fmt.Printf("channels: %d  placements: %d  link utilization: %.1f%%\n",
			len(r.Channels), len(r.Placements), 100*r.LinkUtilization)
		met := 0
		for _, ch := range r.Channels {
			if ch.Met {
				met++
			}
		}
		fmt.Printf("requirements met: %d/%d  throughput: %.1f Mbit/s  total power: %.1f uW\n",
			met, len(r.Channels), r.ThroughputMbps, r.Power.TotalUW)

		// Per-router attribution: the handful of routers carrying circuits
		// dominate; the idle majority cost clock+leakage only — the
		// paper's clock-gating argument, visible per router.
		top := append([]noc.ComponentPower(nil), r.PerComponent...)
		sort.Slice(top, func(i, j int) bool { return top[i].TotalUW > top[j].TotalUW })
		fmt.Println("hottest routers:")
		for _, c := range top[:3] {
			fmt.Printf("  %-12s %8.2f uW (dynamic %.2f)\n",
				c.Component, c.TotalUW, c.DynamicUW)
		}
		var idleUW float64
		for _, c := range top[3:] {
			idleUW += c.TotalUW
		}
		if n := len(top) - 3; n > 0 {
			fmt.Printf("  remaining %d routers average %.2f uW\n",
				n, idleUW/float64(n))
		}
	}
}

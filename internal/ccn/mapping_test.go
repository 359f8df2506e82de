package ccn

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/kpn"
	"repro/internal/mesh"
	"repro/internal/sim"
)

func TestMapUMTSOnMesh(t *testing.T) {
	// The paper's UMTS example: 4 fingers, SF 4, ~320 Mbit/s total. At
	// 100 MHz a lane carries 320 Mbit/s, so every channel fits one lane.
	g, _ := newMgr(4, 3, 100)
	graph := apps.UMTSGraph(apps.DefaultUMTS())
	mp, err := g.MapApplication(graph)
	if err != nil {
		t.Fatal(err)
	}
	if len(mp.Placement) != len(graph.Processes) {
		t.Fatalf("placed %d/%d processes", len(mp.Placement), len(graph.Processes))
	}
	if len(mp.Connections) != len(graph.GTChannels()) {
		t.Fatalf("allocated %d/%d channels", len(mp.Connections), len(graph.GTChannels()))
	}
	// Distinct processes on distinct tiles.
	seen := map[mesh.Coord]bool{}
	for _, c := range mp.Placement {
		if seen[c] {
			t.Fatal("two processes share a tile")
		}
		seen[c] = true
	}
	if mp.TotalHops() == 0 {
		t.Fatal("no hops recorded")
	}
}

func TestMapHiperLANNeedsGangedLanes(t *testing.T) {
	// At 200 MHz a lane carries 640 Mbit/s: the HiperLAN/2 front end fits
	// exactly one lane and the mapping succeeds.
	g, _ := newMgr(4, 3, 200)
	graph := apps.HiperLANGraph(apps.DefaultHiperLAN(), apps.HiperLANModulations()[3])
	mp, err := g.MapApplication(graph)
	if err != nil {
		t.Fatal(err)
	}
	// At 25 MHz the 640 Mbit/s channel needs 8 lanes: infeasible with 4.
	g25, _ := newMgr(4, 3, 25)
	if _, err := g25.MapApplication(graph); err == nil {
		t.Fatal("640 Mbit/s at 25 MHz should be infeasible with 4 lanes")
	}
	_ = mp
}

func TestMapDRMIsTrivial(t *testing.T) {
	// DRM's kbit/s channels fit anywhere, even at 25 MHz.
	g, _ := newMgr(4, 3, 25)
	if _, err := g.MapApplication(apps.DRMGraph()); err != nil {
		t.Fatal(err)
	}
}

func TestMapTwoApplicationsShareMesh(t *testing.T) {
	// The multi-mode terminal: UMTS and DRM mapped concurrently.
	g, _ := newMgr(5, 4, 100)
	u, err := g.MapApplication(apps.UMTSGraph(apps.DefaultUMTS()))
	if err != nil {
		t.Fatal(err)
	}
	d, err := g.MapApplication(apps.DRMGraph())
	if err != nil {
		t.Fatal(err)
	}
	// No tile hosts processes from both applications.
	for _, uc := range u.Placement {
		for _, dc := range d.Placement {
			if uc == dc {
				t.Fatal("tile shared between applications")
			}
		}
	}
	// Unmapping UMTS frees its tiles for a new mapping.
	if err := g.UnmapApplication(u); err != nil {
		t.Fatal(err)
	}
	if _, err := g.MapApplication(apps.UMTSGraph(apps.DefaultUMTS())); err != nil {
		t.Fatalf("remap after unmap failed: %v", err)
	}
}

func TestMapFailsWhenTooFewTiles(t *testing.T) {
	g, _ := newMgr(2, 2, 100) // 4 tiles, UMTS needs 10 processes
	if _, err := g.MapApplication(apps.UMTSGraph(apps.DefaultUMTS())); err == nil {
		t.Fatal("mapping onto too-small mesh accepted")
	}
}

func TestMapRejectsInvalidGraph(t *testing.T) {
	g, _ := newMgr(3, 3, 100)
	bad := &kpn.Graph{Name: "bad"}
	if _, err := g.MapApplication(bad); err == nil {
		t.Fatal("invalid graph accepted")
	}
}

func TestMappedChannelCarriesData(t *testing.T) {
	// End-to-end: map a 2-process pipeline and stream words through the
	// configured connection.
	g, m := newMgr(3, 3, 100)
	graph := &kpn.Graph{
		Name:      "pipe",
		Processes: []kpn.Process{{Name: "src"}, {Name: "dst"}},
		Channels: []kpn.Channel{
			{Name: "c", From: "src", To: "dst", BandwidthMbps: 100, Class: kpn.GT},
		},
	}
	mp, err := g.MapApplication(graph)
	if err != nil {
		t.Fatal(err)
	}
	conn := mp.Connections["c"]
	m.Step()
	a, b := m.At(conn.Src), m.At(conn.Dst)
	txLane := conn.Segments[0][0].Circuit.In.Lane
	rxLane := conn.Segments[0][len(conn.Segments[0])-1].Circuit.Out.Lane
	recv, n := 0, 0
	m.World().Add(&sim.Func{OnEval: func() {
		if a.Tx[txLane].Ready() {
			if a.Tx[txLane].Push(core.DataWord(uint16(n))) {
				n++
			}
		}
		if _, ok := b.Rx[rxLane].Pop(); ok {
			recv++
		}
	}})
	if !m.World().RunUntil(func() bool { return recv >= 20 }, 3000) {
		t.Fatalf("mapped channel carried %d words", recv)
	}
}

func TestPlacementPrefersLocality(t *testing.T) {
	// A 3-stage pipeline on a 5x5 mesh must map to adjacent or near
	// adjacent tiles (hop count near minimal), not scattered corners.
	g, _ := newMgr(5, 5, 100)
	graph := &kpn.Graph{
		Name:      "pipe3",
		Processes: []kpn.Process{{Name: "a"}, {Name: "b"}, {Name: "c"}},
		Channels: []kpn.Channel{
			{Name: "ab", From: "a", To: "b", BandwidthMbps: 100, Class: kpn.GT},
			{Name: "bc", From: "b", To: "c", BandwidthMbps: 100, Class: kpn.GT},
		},
	}
	mp, err := g.MapApplication(graph)
	if err != nil {
		t.Fatal(err)
	}
	if mp.TotalHops() > 4 {
		t.Fatalf("pipeline scattered: %d hops for 2 channels", mp.TotalHops())
	}
}

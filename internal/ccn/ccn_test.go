package ccn

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/benet"
	"repro/internal/core"
	"repro/internal/mesh"
	"repro/internal/packetsw"
	"repro/internal/sim"
)

func newMgr(w, h int, freq float64) (*Manager, *mesh.Mesh) {
	m := mesh.New(w, h, core.DefaultParams(), core.DefaultAssemblyOptions())
	return NewManager(m, freq), m
}

func TestNewManagerRejectsBadClock(t *testing.T) {
	for _, f := range []float64{0, -25, math.NaN(), math.Inf(1), math.Inf(-1)} {
		t.Run(fmt.Sprint(f), func(t *testing.T) {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, "frequency") {
					t.Fatalf("panic %q, want one naming the frequency", msg)
				}
			}()
			newMgr(2, 2, f)
		})
	}
}

func TestLaneMath(t *testing.T) {
	g, _ := newMgr(3, 3, 25)
	if got := g.LaneRateMbps(); got != 80 {
		t.Fatalf("lane rate = %v, want 80 Mbit/s at 25 MHz", got)
	}
	if g.LanesFor(80) != 1 || g.LanesFor(81) != 2 || g.LanesFor(0) != 1 {
		t.Fatal("LanesFor wrong")
	}
	if g.Feasible(320) != nil {
		t.Fatal("4 lanes at 80 Mbit/s should carry 320")
	}
	if g.Feasible(321) == nil {
		t.Fatal("5 lanes needed but only 4 exist")
	}
}

func TestAllocateSingleLanePath(t *testing.T) {
	g, m := newMgr(3, 3, 25)
	c, err := g.Allocate(mesh.Coord{X: 0, Y: 0}, mesh.Coord{X: 2, Y: 1}, 80)
	if err != nil {
		t.Fatal(err)
	}
	if c.Lanes != 1 {
		t.Fatalf("lanes = %d", c.Lanes)
	}
	// Route is XY: (0,0)(1,0)(2,0)(2,1) = 4 nodes.
	if len(c.Route) != 4 {
		t.Fatalf("route = %v", c.Route)
	}
	// One segment per hop router.
	if len(c.Segments[0]) != 4 {
		t.Fatalf("segments = %d", len(c.Segments[0]))
	}
	// First segment enters at the tile, last leaves at the tile.
	if c.Segments[0][0].Circuit.In.Port != core.Tile {
		t.Fatal("path does not start at the source tile")
	}
	if c.Segments[0][3].Circuit.Out.Port != core.Tile {
		t.Fatal("path does not end at the destination tile")
	}
	// Segments chain: out lane of hop i feeds in lane of hop i+1 through
	// the link (same lane index, opposite port).
	for i := 0; i < 3; i++ {
		out := c.Segments[0][i].Circuit.Out
		in := c.Segments[0][i+1].Circuit.In
		if in.Port != out.Port.Opposite() || in.Lane != out.Lane {
			t.Fatalf("hop %d: out %v does not chain to in %v", i, out, in)
		}
	}
	_ = m
}

func TestAllocateGangsLanes(t *testing.T) {
	g, _ := newMgr(3, 1, 25)
	// 240 Mbit/s needs 3 lanes at 80 Mbit/s.
	c, err := g.Allocate(mesh.Coord{X: 0, Y: 0}, mesh.Coord{X: 2, Y: 0}, 240)
	if err != nil {
		t.Fatal(err)
	}
	if c.Lanes != 3 || len(c.Segments) != 3 {
		t.Fatalf("lanes = %d, segments = %d", c.Lanes, len(c.Segments))
	}
	// The three paths use distinct lanes on the shared links.
	used := map[string]bool{}
	for _, lane := range c.Segments {
		for _, seg := range lane {
			key := seg.Node.String() + seg.Circuit.Out.String()
			if used[key] {
				t.Fatalf("output lane %s allocated twice", key)
			}
			used[key] = true
		}
	}
}

func TestAllocateExhaustsLanesAndFails(t *testing.T) {
	g, _ := newMgr(2, 1, 25)
	src, dst := mesh.Coord{X: 0, Y: 0}, mesh.Coord{X: 1, Y: 0}
	// 4 lanes per link: four 80 Mbit/s circuits fit, the fifth does not
	// (both XY and YX routes use the same single link).
	for i := 0; i < 4; i++ {
		if _, err := g.Allocate(src, dst, 80); err != nil {
			t.Fatalf("allocation %d failed: %v", i, err)
		}
	}
	if _, err := g.Allocate(src, dst, 80); err == nil {
		t.Fatal("fifth circuit on a 4-lane link accepted")
	}
}

func TestAllocateFallsBackToYX(t *testing.T) {
	g, _ := newMgr(2, 3, 25)
	src, dst := mesh.Coord{X: 0, Y: 0}, mesh.Coord{X: 1, Y: 1}
	// Saturate the XY route's second link (1,0)->(1,1) with pass-through
	// circuits (1,0) -> (1,2), which use different tile lanes.
	for i := 0; i < 4; i++ {
		if _, err := g.Allocate(mesh.Coord{X: 1, Y: 0}, mesh.Coord{X: 1, Y: 2}, 80); err != nil {
			t.Fatal(err)
		}
	}
	c, err := g.Allocate(src, dst, 80)
	if err != nil {
		t.Fatalf("YX fallback failed: %v", err)
	}
	// The YX route goes south first.
	if c.Route[1] != (mesh.Coord{X: 0, Y: 1}) {
		t.Fatalf("route = %v, expected YX detour", c.Route)
	}
}

func TestAllocateRejectsBadEndpoints(t *testing.T) {
	g, _ := newMgr(2, 2, 25)
	if _, err := g.Allocate(mesh.Coord{X: 0, Y: 0}, mesh.Coord{X: 0, Y: 0}, 80); err == nil {
		t.Fatal("self connection accepted")
	}
	if _, err := g.Allocate(mesh.Coord{X: -1, Y: 0}, mesh.Coord{X: 1, Y: 0}, 80); err == nil {
		t.Fatal("out-of-mesh endpoint accepted")
	}
}

func TestConfigureAndStream(t *testing.T) {
	g, m := newMgr(3, 1, 25)
	src, dst := mesh.Coord{X: 0, Y: 0}, mesh.Coord{X: 2, Y: 0}
	c, err := g.Allocate(src, dst, 80)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Configure(c); err != nil {
		t.Fatal(err)
	}
	m.Step() // configuration edge
	a, b := m.At(src), m.At(dst)
	txLane := c.Segments[0][0].Circuit.In.Lane
	rxLane := c.Segments[0][len(c.Segments[0])-1].Circuit.Out.Lane
	var got []core.Word
	n := 0
	m.World().Add(&sim.Func{OnEval: func() {
		if n < 25 && a.Tx[txLane].Ready() {
			if a.Tx[txLane].Push(core.DataWord(uint16(n + 100))) {
				n++
			}
		}
		if w, ok := b.Rx[rxLane].Pop(); ok {
			got = append(got, w)
		}
	}})
	if !m.World().RunUntil(func() bool { return len(got) == 25 }, 3000) {
		t.Fatalf("received %d/25 over CCN-allocated circuit", len(got))
	}
	for i, w := range got {
		if w.Data != uint16(i+100) {
			t.Fatalf("word %d corrupted: %v", i, w)
		}
	}
}

func TestReleaseFreesLanes(t *testing.T) {
	g, _ := newMgr(2, 1, 25)
	src, dst := mesh.Coord{X: 0, Y: 0}, mesh.Coord{X: 1, Y: 0}
	var ids []int
	for i := 0; i < 4; i++ {
		c, err := g.Allocate(src, dst, 80)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, c.ID)
	}
	if _, err := g.Allocate(src, dst, 80); err == nil {
		t.Fatal("should be full")
	}
	if err := g.Release(ids[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Allocate(src, dst, 80); err != nil {
		t.Fatalf("lane not freed: %v", err)
	}
	if err := g.Release(999); err == nil {
		t.Fatal("released unknown connection")
	}
	if len(g.Connections()) != 4 {
		t.Fatalf("live connections = %d, want 4", len(g.Connections()))
	}
	if _, ok := g.Connection(ids[1]); !ok {
		t.Fatal("Connection lookup failed")
	}
}

func TestLinkUtilization(t *testing.T) {
	g, _ := newMgr(2, 1, 25)
	if g.LinkUtilization() != 0 {
		t.Fatal("fresh mesh should be idle")
	}
	if _, err := g.Allocate(mesh.Coord{X: 0, Y: 0}, mesh.Coord{X: 1, Y: 0}, 80); err != nil {
		t.Fatal(err)
	}
	// 2x1 mesh: 8 inter-router output lanes (4 each direction); 1 in use.
	if got := g.LinkUtilization(); got != 1.0/8 {
		t.Fatalf("utilization = %v, want 1/8", got)
	}
}

func TestBEConfiguratorDeliversAndMeetsBudget(t *testing.T) {
	g, m := newMgr(4, 4, 25)
	be := benet.New(4, 4, packetsw.DefaultParams())
	bc := &BEConfigurator{Net: be, Mesh: m, CCNNode: mesh.Coord{X: 0, Y: 0}}
	c, err := g.Allocate(mesh.Coord{X: 0, Y: 1}, mesh.Coord{X: 3, Y: 3}, 160)
	if err != nil {
		t.Fatal(err)
	}
	res, err := bc.Configure(c)
	if err != nil {
		t.Fatal(err)
	}
	if res.Commands != 2*len(c.Route) {
		t.Fatalf("commands = %d, want %d (2 lanes × %d hops)",
			res.Commands, 2*len(c.Route), len(c.Route))
	}
	// The paper's budget: < 1 ms per lane configuration at the BE clock.
	if ms := res.MaxCommandTimeMS(25); ms >= 1 {
		t.Fatalf("per-command configuration took %.3f ms, budget 1 ms", ms)
	}
	// The circuit must now actually work.
	m.Step()
	a, b := m.At(mesh.Coord{X: 0, Y: 1}), m.At(mesh.Coord{X: 3, Y: 3})
	txLane := c.Segments[0][0].Circuit.In.Lane
	rxLane := c.Segments[0][len(c.Segments[0])-1].Circuit.Out.Lane
	delivered := 0
	n := 0
	m.World().Add(&sim.Func{OnEval: func() {
		if a.Tx[txLane].Ready() {
			if a.Tx[txLane].Push(core.DataWord(uint16(n))) {
				n++
			}
		}
		if _, ok := b.Rx[rxLane].Pop(); ok {
			delivered++
		}
	}})
	if !m.World().RunUntil(func() bool { return delivered >= 10 }, 3000) {
		t.Fatalf("BE-configured circuit carried %d words", delivered)
	}
}

func TestFullRouterReconfigBudget(t *testing.T) {
	_, m := newMgr(4, 4, 25)
	be := benet.New(4, 4, packetsw.DefaultParams())
	bc := &BEConfigurator{Net: be, Mesh: m, CCNNode: mesh.Coord{X: 0, Y: 0}}
	res, err := bc.FullRouterReconfig(mesh.Coord{X: 3, Y: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Commands != 20 {
		t.Fatalf("commands = %d, want 20 (one per output lane)", res.Commands)
	}
	// The paper's budget: a full router within 20 ms.
	if ms := res.TimeMS(25); ms >= 20 {
		t.Fatalf("full reconfiguration took %.3f ms, budget 20 ms", ms)
	}
	// All 20 lanes are now enabled.
	m.Step()
	if got := m.At(mesh.Coord{X: 3, Y: 3}).R.Config().EnabledLanes(); got != 20 {
		t.Fatalf("enabled lanes = %d, want 20", got)
	}
}

package ccn

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/benet"
	"repro/internal/core"
	"repro/internal/kpn"
	"repro/internal/mesh"
	"repro/internal/packetsw"
	"repro/internal/sim"
)

func newMgr(w, h int, freq float64, wopts ...sim.WorldOption) (*Manager, *mesh.Mesh) {
	m := mesh.New(w, h, core.DefaultParams(), core.DefaultAssemblyOptions(), wopts...)
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

// TestBandwidthMustBeFinite: a NaN, infinite or huge bandwidth is
// infeasible. LanesFor's int conversion turns all of them into a
// negative lane count, which once passed Feasible's lane check:
// Allocate then returned a "connection" of math.MinInt64 lanes and no
// lane path, and MapApplication mapped such a channel.
func TestBandwidthMustBeFinite(t *testing.T) {
	src, dst := mesh.Coord{X: 0, Y: 0}, mesh.Coord{X: 2, Y: 1}
	for _, bw := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e300} {
		g, _ := newMgr(3, 3, 25)
		if err := g.Feasible(bw); err == nil {
			t.Errorf("Feasible(%v) accepted", bw)
		}
		if c, err := g.Allocate(src, dst, bw); err == nil {
			t.Errorf("Allocate(%v) = %d lanes on %d lane paths, want an error", bw, c.Lanes, len(c.Segments))
		}
		graph := &kpn.Graph{
			Name:      "two",
			Processes: []kpn.Process{{Name: "a"}, {Name: "b"}},
			Channels:  []kpn.Channel{{Name: "ab", From: "a", To: "b", BandwidthMbps: bw, Class: kpn.GT}},
		}
		if _, err := g.MapApplication(graph); err == nil {
			t.Errorf("MapApplication mapped a %v Mbit/s channel", bw)
		}
		if ids := g.Connections(); len(ids) != 0 || g.LinkUtilization() != 0 {
			t.Errorf("%v Mbit/s left connections %v, link utilisation %v", bw, ids, g.LinkUtilization())
		}
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

// TestBEConfiguratorDeliversAndMeetsBudget configures a circuit over the
// BE network, meets the paper's per-command budget and streams words
// through it. The flow runs under both kernels: the configuration timing
// and the delivered words must agree, and the production kernel must
// re-activate parked assemblies — PushConfig's wake is how a dormant
// assembly leaves the parked set.
func TestBEConfiguratorDeliversAndMeetsBudget(t *testing.T) {
	type outcome struct {
		res         ConfigureResult
		words       []core.Word
		activations uint64
	}
	run := func(k sim.Kernel) outcome {
		g, m := newMgr(4, 4, 25, sim.WithKernel(k))
		be := benet.New(4, 4, packetsw.DefaultParams(), sim.WithKernel(k))
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
			t.Fatalf("%v: commands = %d, want %d (2 lanes × %d hops)",
				k, res.Commands, 2*len(c.Route), len(c.Route))
		}
		// The paper's budget: < 1 ms per lane configuration at the BE clock.
		if ms := res.MaxCommandTimeMS(25); ms >= 1 {
			t.Fatalf("%v: per-command configuration took %.3f ms, budget 1 ms", k, ms)
		}
		// The circuit must now actually work.
		m.Step()
		a, b := m.At(mesh.Coord{X: 0, Y: 1}), m.At(mesh.Coord{X: 3, Y: 3})
		txLane := c.Segments[0][0].Circuit.In.Lane
		rxLane := c.Segments[0][len(c.Segments[0])-1].Circuit.Out.Lane
		var words []core.Word
		n := 0
		m.World().Add(&sim.Func{OnEval: func() {
			if a.Tx[txLane].Ready() {
				if a.Tx[txLane].Push(core.DataWord(uint16(n))) {
					n++
				}
			}
			if w, ok := b.Rx[rxLane].Pop(); ok {
				words = append(words, w)
			}
		}})
		if !m.World().RunUntil(func() bool { return len(words) >= 10 }, 3000) {
			t.Fatalf("%v: BE-configured circuit carried %d words", k, len(words))
		}
		return outcome{res, words, m.World().Activations()}
	}
	naive, active := run(sim.KernelNaive), run(sim.KernelActive)
	if naive.res != active.res {
		t.Errorf("configuration differs across kernels: naive %+v, active %+v", naive.res, active.res)
	}
	if fmt.Sprint(naive.words) != fmt.Sprint(active.words) {
		t.Errorf("delivered words differ across kernels:\nnaive  %v\nactive %v", naive.words, active.words)
	}
	if active.activations == 0 {
		t.Error("production kernel re-activated no parked assembly")
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

// TestFullRouterReconfigOfCCNNode: commands for the CCN's own router are
// self-addressed BE messages, which the network delivers without routing
// them, so reconfiguring that router applies all 20 commands.
func TestFullRouterReconfigOfCCNNode(t *testing.T) {
	_, m := newMgr(4, 4, 25)
	home := mesh.Coord{X: 0, Y: 0}
	bc := &BEConfigurator{Net: benet.New(4, 4, packetsw.DefaultParams()), Mesh: m, CCNNode: home}
	res, err := bc.FullRouterReconfig(home)
	if err != nil {
		t.Fatal(err)
	}
	if res.Commands != 20 {
		t.Fatalf("commands = %d, want 20 (one per output lane)", res.Commands)
	}
	m.Step()
	if got := m.At(home).R.Config().EnabledLanes(); got != 20 {
		t.Fatalf("enabled lanes = %d, want 20", got)
	}
}

// TestBEConfigRejectsWordsWiderThanPayload: a router whose configuration
// word exceeds the BE network's 16-bit payload word (64 lanes per port
// need 18 bits) is refused up front instead of being configured from a
// truncated word.
func TestBEConfigRejectsWordsWiderThanPayload(t *testing.T) {
	p := core.DefaultParams()
	p.LanesPerPort = 64
	m := mesh.New(2, 1, p, core.DefaultAssemblyOptions())
	bc := &BEConfigurator{Net: benet.New(2, 1, packetsw.DefaultParams()), Mesh: m}
	if _, err := bc.FullRouterReconfig(mesh.Coord{X: 1, Y: 0}); err == nil || !strings.Contains(err.Error(), "16-bit") {
		t.Fatalf("err = %v, want an error naming the 16-bit payload word", err)
	}
}

package mesh

import (
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stdcell"
)

func newMesh(w, h int) *Mesh {
	return New(w, h, core.DefaultParams(), core.DefaultAssemblyOptions())
}

func TestMeshGeometry(t *testing.T) {
	m := newMesh(4, 3)
	if m.Nodes() != 12 {
		t.Fatalf("nodes = %d", m.Nodes())
	}
	if !m.InBounds(Coord{3, 2}) || m.InBounds(Coord{4, 0}) || m.InBounds(Coord{0, -1}) {
		t.Fatal("bounds wrong")
	}
	if m.At(Coord{0, 0}) == m.At(Coord{1, 0}) {
		t.Fatal("nodes alias")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("At out of bounds should panic")
		}
	}()
	m.At(Coord{9, 9})
}

func TestNewPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	newMesh(0, 3)
}

// TestNeighbourAndPortTowards: each port leads to the neighbour on
// that side, and the route to a neighbour leaves by the port that faces
// it, X first or Y first.
func TestNeighbourAndPortTowards(t *testing.T) {
	m := newMesh(3, 3)
	c := Coord{1, 1}
	dirs := map[core.Port]Coord{
		core.North: {1, 0}, core.South: {1, 2}, core.East: {2, 1}, core.West: {0, 1},
	}
	for p, want := range dirs {
		got, ok := m.Neighbour(c, p)
		if !ok || got != want {
			t.Errorf("Neighbour(%v, %v) = %v,%v", c, p, got, ok)
		}
		for _, xFirst := range []bool{true, false} {
			if back := core.ExitPort(c.X, c.Y, want.X, want.Y, xFirst); back != p {
				t.Errorf("ExitPort(%v, %v, %v) = %v, want %v", c, want, xFirst, back, p)
			}
		}
	}
	if _, ok := m.Neighbour(Coord{0, 0}, core.North); ok {
		t.Fatal("edge node has no north neighbour")
	}
	if _, ok := m.Neighbour(c, core.Tile); ok {
		t.Fatal("tile port has no neighbour")
	}
}

func TestXYPath(t *testing.T) {
	p := routeOf(Coord{0, 0}, Coord{2, 1}, true)
	want := []Coord{{0, 0}, {1, 0}, {2, 0}, {2, 1}}
	if len(p) != len(want) {
		t.Fatalf("path = %v", p)
	}
	for i := range want {
		if p[i] != want[i] {
			t.Fatalf("path = %v, want %v", p, want)
		}
	}
	if got := routeOf(Coord{1, 1}, Coord{1, 1}, true); len(got) != 1 {
		t.Fatalf("self path = %v", got)
	}
}

func TestXYPathProperty(t *testing.T) {
	// Any XY path is connected, has Manhattan-distance+1 nodes, and stays
	// rectilinear.
	f := func(ax, ay, bx, by uint8) bool {
		a := Coord{int(ax % 8), int(ay % 8)}
		b := Coord{int(bx % 8), int(by % 8)}
		p := routeOf(a, b, true)
		if p[0] != a || p[len(p)-1] != b {
			return false
		}
		dist := abs(a.X-b.X) + abs(a.Y-b.Y)
		if len(p) != dist+1 {
			return false
		}
		for i := 1; i < len(p); i++ {
			if _, err := portTowards(p[i-1], p[i]); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func TestDataCrossesTheMesh(t *testing.T) {
	// Manually configure a 3-hop circuit (0,0)Tile -> East -> East ->
	// (2,0)Tile and stream words across it.
	m := newMesh(3, 1)
	p := m.P
	src, mid, dst := m.At(Coord{0, 0}), m.At(Coord{1, 0}), m.At(Coord{2, 0})
	if err := src.EstablishLocal(core.Circuit{
		In: core.LaneID{Port: core.Tile, Lane: 0}, Out: core.LaneID{Port: core.East, Lane: 0},
	}); err != nil {
		t.Fatal(err)
	}
	if err := mid.EstablishLocal(core.Circuit{
		In: core.LaneID{Port: core.West, Lane: 0}, Out: core.LaneID{Port: core.East, Lane: 1},
	}); err != nil {
		t.Fatal(err)
	}
	if err := dst.EstablishLocal(core.Circuit{
		In: core.LaneID{Port: core.West, Lane: 1}, Out: core.LaneID{Port: core.Tile, Lane: 0},
	}); err != nil {
		t.Fatal(err)
	}
	_ = p
	const total = 40
	var got []core.Word
	n := 0
	m.World().Add(&sim.Func{OnEval: func() {
		if n < total && src.Tx[0].Ready() {
			if src.Tx[0].Push(core.DataWord(uint16(n * 5))) {
				n++
			}
		}
		if w, ok := dst.Rx[0].Pop(); ok {
			got = append(got, w)
		}
	}})
	if !m.World().RunUntil(func() bool { return len(got) == total }, 5000) {
		t.Fatalf("received %d/%d", len(got), total)
	}
	for i, w := range got {
		if w.Data != uint16(i*5) {
			t.Fatalf("word %d = %v", i, w)
		}
	}
	if dst.Rx[0].Dropped() != 0 {
		t.Fatal("drops across mesh")
	}
	if src.Tx[0].WindowViolations() != 0 {
		t.Fatal("window violations across mesh")
	}
}

func TestAckTravelsBackAcrossMesh(t *testing.T) {
	// With a slow consumer three hops away, flow control must throttle
	// the source with zero loss (the ack path crosses two links).
	m := newMesh(3, 1)
	src, mid, dst := m.At(Coord{0, 0}), m.At(Coord{1, 0}), m.At(Coord{2, 0})
	for _, c := range []struct {
		a    *core.Assembly
		circ core.Circuit
	}{
		{src, core.Circuit{In: core.LaneID{Port: core.Tile, Lane: 0}, Out: core.LaneID{Port: core.East, Lane: 2}}},
		{mid, core.Circuit{In: core.LaneID{Port: core.West, Lane: 2}, Out: core.LaneID{Port: core.East, Lane: 3}}},
		{dst, core.Circuit{In: core.LaneID{Port: core.West, Lane: 3}, Out: core.LaneID{Port: core.Tile, Lane: 2}}},
	} {
		if err := c.a.EstablishLocal(c.circ); err != nil {
			t.Fatal(err)
		}
	}
	sent, consumed, cycle := 0, 0, 0
	m.World().Add(&sim.Func{OnEval: func() {
		if src.Tx[0].Ready() {
			if src.Tx[0].Push(core.DataWord(uint16(sent))) {
				sent++
			}
		}
		if cycle%31 == 0 {
			if _, ok := dst.Rx[2].Pop(); ok {
				consumed++
			}
		}
		cycle++
	}})
	m.Run(4000)
	if dst.Rx[2].Dropped() != 0 {
		t.Fatalf("flow control failed across mesh: %d drops", dst.Rx[2].Dropped())
	}
	if consumed < 50 {
		t.Fatalf("consumer starved: %d", consumed)
	}
	if src.Tx[0].Stalled() == 0 {
		t.Fatal("source never throttled")
	}
}

func TestCoordString(t *testing.T) {
	if (Coord{2, 3}).String() != "(2,3)" {
		t.Fatal("coord rendering")
	}
}

// TestMeshBuildAllocs pins the mesh's slab construction: building a
// metered mesh allocates once per kind of state, whatever its size, plus
// two wake closures per node (the kernel's and the assembly's). So a
// 32×32 build may allocate at most two objects per added node more than
// a 16×16 one.
func TestMeshBuildAllocs(t *testing.T) {
	lib := stdcell.Default013()
	build := func(side int) float64 {
		return testing.AllocsPerRun(3, func() {
			m := New(side, side, core.DefaultParams(), core.DefaultAssemblyOptions())
			m.BindMeters(lib, 25, true)
		})
	}
	small, large := build(16), build(32)
	if added := 32*32 - 16*16; large-small > 2*float64(added) {
		t.Errorf("16x16 build: %.0f allocations, 32x32: %.0f; want at most %d more", small, large, 2*added)
	}
}

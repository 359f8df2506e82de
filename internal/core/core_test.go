package core

import (
	"testing"
	"testing/quick"
)

func TestDefaultParamsMatchPaper(t *testing.T) {
	p := DefaultParams()
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	checks := []struct {
		name string
		got  int
		want int
	}{
		{"total lanes", p.TotalLanes(), 20},
		{"foreign lanes (crossbar inputs)", p.ForeignLanes(), 16},
		{"packet nibbles", p.PacketNibbles(), 5},
		{"packet bits", p.PacketBits(), 20},
		{"select bits", p.SelBits(), 4},
		{"config bits per lane", p.ConfigBitsPerLane(), 5},
		{"config memory bits", p.ConfigBits(), 100},
		{"config command bits", p.ConfigWordBits(), 10},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d (paper Section 5.1)", c.name, c.got, c.want)
		}
	}
}

func TestParamsValidateRejects(t *testing.T) {
	bad := []Params{
		{Ports: 1, LanesPerPort: 4, LaneWidth: 4, TileWidth: 16},
		{Ports: 5, LanesPerPort: 0, LaneWidth: 4, TileWidth: 16},
		{Ports: 5, LanesPerPort: 4, LaneWidth: 0, TileWidth: 16},
		{Ports: 5, LanesPerPort: 4, LaneWidth: 17, TileWidth: 16},
		{Ports: 5, LanesPerPort: 4, LaneWidth: 4, TileWidth: 0},
		{Ports: 5, LanesPerPort: 4, LaneWidth: 4, TileWidth: 33},
		{Ports: 5, LanesPerPort: 4, LaneWidth: 3, TileWidth: 16}, // not divisible
	}
	for i, p := range bad {
		if p.Validate() == nil {
			t.Errorf("case %d: Validate accepted %+v", i, p)
		}
	}
}

func TestPortNames(t *testing.T) {
	want := map[Port]string{Tile: "Tile", North: "North", East: "East", South: "South", West: "West"}
	for p, s := range want {
		if p.String() != s {
			t.Errorf("Port(%d) = %q, want %q", int(p), p.String(), s)
		}
	}
	if Port(9).String() == "" {
		t.Error("unknown port should render")
	}
}

func TestPortOpposite(t *testing.T) {
	pairs := map[Port]Port{North: South, South: North, East: West, West: East}
	for p, o := range pairs {
		if p.Opposite() != o {
			t.Errorf("%v.Opposite() = %v, want %v", p, p.Opposite(), o)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Tile.Opposite() should panic")
		}
	}()
	Tile.Opposite()
}

// TestExitPortRoutes walks ExitPort from every source to every other
// destination of every mesh from 1×1 to 9×9, X first and Y first: each
// walk is a shortest route, |dx|+|dy| hops ending on Tile at the
// destination, that finishes one dimension before it moves in the
// other. At every router after the source on the X-then-Y route, the
// entry port — the one facing the previous router — is the port by
// which the Y-then-X route back to the source leaves: the identity the
// pattern projection takes its entry ports from.
func TestExitPortRoutes(t *testing.T) {
	step := func(x, y int, p Port) (int, int) {
		switch p {
		case North:
			return x, y - 1
		case South:
			return x, y + 1
		case East:
			return x + 1, y
		case West:
			return x - 1, y
		}
		t.Fatalf("step through %v", p)
		return x, y
	}
	abs := func(v int) int { return max(v, -v) }
	horizontal := func(p Port) bool { return p == East || p == West }
	for w := 1; w <= 9; w++ {
		for h := 1; h <= 9; h++ {
			for s := 0; s < w*h; s++ {
				for d := 0; d < w*h; d++ {
					if s == d {
						continue
					}
					sx, sy, dx, dy := s%w, s/w, d%w, d/w
					want := abs(dx-sx) + abs(dy-sy)
					for _, xFirst := range []bool{true, false} {
						x, y, hops, turned := sx, sy, 0, false
						for p := ExitPort(x, y, dx, dy, xFirst); p != Tile; p = ExitPort(x, y, dx, dy, xFirst) {
							if horizontal(p) != xFirst {
								turned = true
							} else if turned {
								t.Fatalf("%dx%d %d->%d xFirst=%v: %v after the turn at (%d,%d)", w, h, s, d, xFirst, p, x, y)
							}
							x, y = step(x, y, p)
							if x < 0 || x >= w || y < 0 || y >= h || hops == want {
								t.Fatalf("%dx%d %d->%d xFirst=%v: walked to (%d,%d) after %d hops", w, h, s, d, xFirst, x, y, hops+1)
							}
							hops++
							if xFirst {
								in := p.Opposite()
								if back := ExitPort(x, y, sx, sy, false); back != in {
									t.Fatalf("%dx%d %d->%d: at (%d,%d) entry %v, Y-then-X exit to the source %v", w, h, s, d, x, y, in, back)
								}
							}
						}
						if x != dx || y != dy || hops != want {
							t.Fatalf("%dx%d %d->%d xFirst=%v: Tile at (%d,%d) after %d hops, want (%d,%d) after %d", w, h, s, d, xFirst, x, y, hops, dx, dy, want)
						}
					}
				}
			}
		}
	}
}

func TestGlobalLaneRoundTrip(t *testing.T) {
	p := DefaultParams()
	for g := 0; g < p.TotalLanes(); g++ {
		l := p.LaneOf(g)
		if p.Global(l) != g {
			t.Errorf("Global(LaneOf(%d)) = %d", g, p.Global(l))
		}
	}
	if g := p.Global(LaneID{Port: East, Lane: 2}); g != int(East)*4+2 {
		t.Fatalf("East.2 global = %d", g)
	}
}

func TestGlobalPanics(t *testing.T) {
	p := DefaultParams()
	for _, l := range []LaneID{{Port: Port(5), Lane: 0}, {Port: Tile, Lane: 4}, {Port: Tile, Lane: -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Global(%v) should panic", l)
				}
			}()
			p.Global(l)
		}()
	}
	defer func() {
		if recover() == nil {
			t.Error("LaneOf(20) should panic")
		}
	}()
	p.LaneOf(20)
}

func TestRelIndexRoundTrip(t *testing.T) {
	p := DefaultParams()
	for outP := 0; outP < p.Ports; outP++ {
		for inG := 0; inG < p.TotalLanes(); inG++ {
			in := p.LaneOf(inG)
			rel, err := p.RelIndex(Port(outP), in)
			if in.Port == Port(outP) {
				if err == nil {
					t.Errorf("RelIndex(%v, %v) should reject same port", Port(outP), in)
				}
				continue
			}
			if err != nil {
				t.Fatalf("RelIndex(%v, %v): %v", Port(outP), in, err)
			}
			if rel < 0 || rel >= p.ForeignLanes() {
				t.Fatalf("rel %d out of range", rel)
			}
			if got := p.InputLane(Port(outP), rel); got != inG {
				t.Errorf("InputLane(%v, %d) = %d, want %d", Port(outP), rel, got, inG)
			}
		}
	}
}

func TestRelIndexBijectionProperty(t *testing.T) {
	// For every output port, the 16 relative indices map to 16 distinct
	// foreign lanes — the crossbar is fully connected and non-aliasing.
	p := DefaultParams()
	for outP := 0; outP < p.Ports; outP++ {
		seen := map[int]bool{}
		for rel := 0; rel < p.ForeignLanes(); rel++ {
			g := p.InputLane(Port(outP), rel)
			if seen[g] {
				t.Fatalf("port %v: input lane %d selected twice", Port(outP), g)
			}
			seen[g] = true
			if p.LaneOf(g).Port == Port(outP) {
				t.Fatalf("port %v: rel %d maps to own port", Port(outP), rel)
			}
		}
	}
}

func TestInputLanePanics(t *testing.T) {
	p := DefaultParams()
	for _, rel := range []int{-1, 16} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("InputLane(rel=%d) should panic", rel)
				}
			}()
			p.InputLane(Tile, rel)
		}()
	}
}

func TestNonDefaultGeometry(t *testing.T) {
	// Lane count/width are design-time parameters (Section 5.1); the
	// indexing must hold for other geometries too.
	p := Params{Ports: 5, LanesPerPort: 8, LaneWidth: 2, TileWidth: 16}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.TotalLanes() != 40 || p.ForeignLanes() != 32 {
		t.Fatalf("geometry wrong: %d/%d", p.TotalLanes(), p.ForeignLanes())
	}
	if p.PacketNibbles() != 10 { // (4 header + 16 data) bits over 2-bit lanes
		t.Fatalf("packet nibbles = %d, want 10", p.PacketNibbles())
	}
	f := func(gRaw uint8) bool {
		g := int(gRaw) % p.TotalLanes()
		return p.Global(p.LaneOf(g)) == g
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

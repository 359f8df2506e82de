package mesh

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

func newBook(w, h int, metrics *obs.Registry) (*LaneBook, *Mesh) {
	m := New(w, h, core.DefaultParams(), core.DefaultAssemblyOptions())
	return NewLaneBook(m, metrics), m
}

// TestReserveRejectsBadRequests: out-of-mesh or coinciding endpoints
// and lane counts below one reserve nothing. A count below one used to
// come from the CCN's int conversion of a NaN or infinite bandwidth and
// "succeed" with no lane path at all.
func TestReserveRejectsBadRequests(t *testing.T) {
	b, _ := newBook(3, 3, nil)
	a, c := Coord{X: 0, Y: 0}, Coord{X: 2, Y: 1}
	for _, req := range []struct {
		name     string
		src, dst Coord
		n        int
	}{
		{"zero lanes", a, c, 0},
		{"negative lanes", a, c, -1},
		{"MinInt lanes", a, c, math.MinInt},
		{"coinciding endpoints", a, a, 1},
		{"source outside", Coord{X: -1, Y: 0}, c, 1},
		{"destination outside", a, Coord{X: 3, Y: 0}, 1},
	} {
		route, paths, err := b.Reserve(req.src, req.dst, req.n)
		if err == nil || route != nil || paths != nil {
			t.Errorf("%s: Reserve = %v, %v, %v; want an error and nothing reserved", req.name, route, paths, err)
		}
	}
	if u := b.LaneUtilization(); u != 0 {
		t.Errorf("lane utilisation %v after rejected requests, want 0", u)
	}
}

// TestReserveAdmitsAtEndpoints: a request for more lane paths than its
// source has free tile inputs or its destination free tile outputs is
// rejected before any route is probed.
func TestReserveAdmitsAtEndpoints(t *testing.T) {
	reg := obs.NewRegistry()
	b, m := newBook(3, 3, reg)
	src, dst := Coord{X: 0, Y: 0}, Coord{X: 2, Y: 2}
	if _, _, err := b.Reserve(src, dst, 3); err != nil {
		t.Fatal(err)
	}
	probes := reg.Counter("mesh.alloc.probes")
	rejects := reg.Counter("mesh.alloc.rejections")
	if probes.Value() != 1 || rejects.Value() != 0 {
		t.Fatalf("probes %d, rejections %d after one reservation; want 1, 0", probes.Value(), rejects.Value())
	}
	for _, req := range []struct{ src, dst Coord }{
		{src, Coord{X: 1, Y: 1}}, // one tile input left at src
		{Coord{X: 1, Y: 1}, dst}, // one tile output left at dst
	} {
		if _, _, err := b.Reserve(req.src, req.dst, 2); err == nil {
			t.Errorf("%v->%v: two lane paths reserved past an exhausted endpoint", req.src, req.dst)
		}
	}
	if probes.Value() != 1 || rejects.Value() != 2 {
		t.Errorf("probes %d, rejections %d; want 1, 2 (endpoint rejections probe no route)",
			probes.Value(), rejects.Value())
	}
	if _, _, err := b.Reserve(src, dst, 1); err != nil {
		t.Errorf("the last free tile lanes at both ends: %v", err)
	}
	for l, tx := range m.At(src).Tx {
		if tx.Enabled() {
			t.Errorf("Reserve enabled transmit converter %d; only Configure may", l)
		}
	}
}

// TestYXPath: the Y-then-X route goes through the corner (from.X, to.Y)
// and matches the two-leg construction it replaced on every pair of a
// 5×4 mesh.
func TestYXPath(t *testing.T) {
	for a := 0; a < 20; a++ {
		for c := 0; c < 20; c++ {
			from, to := Coord{X: a % 5, Y: a / 5}, Coord{X: c % 5, Y: c / 5}
			if got, want := routeOf(from, to, false), refYXPath(from, to); !reflect.DeepEqual(got, want) {
				t.Fatalf("routeOf(%v, %v, false) = %v, want %v", from, to, got, want)
			}
		}
	}
}

// laneStep is one decoded step of a FuzzLaneReserve sequence.
type laneStep struct {
	release  bool
	pick     int // live reservation to release
	n        int // lane paths to reserve
	src, dst Coord
}

// decodeLaneSteps decodes FuzzLaneReserve's input: mesh width and height
// (2–8 each), a mode byte, then three bytes per step — op, source,
// destination — up to 48 steps. An op ≡ 7 (mod 8) releases live
// reservation op/8 (modulo the live count; with none live it reserves
// one lane path); any other op reserves 1 + (op/8 mod LanesPerPort) lane
// paths. An endpoint byte ≥ 0xC0 names one of three hot nodes (first,
// last, middle) so endpoints collide and run out of tile lanes; any
// other byte names node byte mod W·H. With mode bit 0 set the sequence
// only reserves single lane paths, the one request the pattern
// allocator served. Missing bytes read as zero.
func decodeLaneSteps(data []byte) (w, h int, steps []laneStep) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	w, h = 2+next()%7, 2+next()%7
	single := next()&1 == 1
	node := func(b int) Coord {
		i := b % (w * h)
		if b >= 0xC0 {
			i = []int{0, w*h - 1, w * h / 2}[b%3]
		}
		return Coord{X: i % w, Y: i / w}
	}
	for len(data) > 0 && len(steps) < 48 {
		op, s, d := next(), next(), next()
		st := laneStep{n: 1, src: node(s), dst: node(d)}
		switch {
		case single:
		case op%8 == 7:
			st.release, st.pick = true, op/8
		default:
			st.n = 1 + (op/8)%core.DefaultParams().LanesPerPort
		}
		steps = append(steps, st)
	}
	return w, h, steps
}

// FuzzLaneReserve drives LaneBook and both allocators it replaced (the
// CCN's and the pattern harness's, kept in lanes_ref_test.go) through
// one generated reserve/release sequence, each on its own mesh, and
// checks after every step that they agree on success, route, every
// segment, every router's configuration bits, every converter's enable
// flag and both utilisation figures. The pattern allocator follows a
// sequence while it only reserves single lane paths — it never
// released — and drops out at the first step it could not take.
func FuzzLaneReserve(f *testing.F) {
	// Six single-lane flows into the middle of an 8×8 mesh: four fill
	// its tile outputs, two are rejected there.
	f.Add([]byte{6, 6, 1, 0, 0, 0xC2, 0, 9, 0xC2, 0, 20, 0xC2, 0, 33, 0xC2, 0, 40, 0xC2, 0, 50, 0xC2})
	// On 2×3, four lane paths (1,0)->(1,2) fill the XY route of
	// (0,0)->(1,1), which falls back to YX; then releases and a 3-lane
	// gang.
	f.Add([]byte{0, 1, 0, 24, 1, 5, 0, 0, 3, 7, 1, 2, 16, 4, 1, 15, 0, 0, 24, 1, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		w, h, steps := decodeLaneSteps(data)
		p := core.DefaultParams()
		newMesh := func() *Mesh { return New(w, h, p, core.DefaultAssemblyOptions()) }
		bm, cm, pm := newMesh(), newMesh(), newMesh()
		book, ccn, pat := NewLaneBook(bm, nil), newRefCCN(cm), newRefPattern(pm)
		following := true
		type live struct {
			paths [][]Segment
			conn  *refConn
		}
		var lives []live
		for i, st := range steps {
			if st.release && len(lives) > 0 {
				k := st.pick % len(lives)
				book.Release(lives[k].paths)
				ccn.Release(lives[k].conn)
				lives = append(lives[:k], lives[k+1:]...)
				following = false
			} else {
				route, paths, err := book.Reserve(st.src, st.dst, st.n)
				conn, cerr := ccn.Allocate(st.src, st.dst, st.n)
				if (err == nil) != (cerr == nil) {
					t.Fatalf("step %d %+v: LaneBook err %v, CCN err %v", i, st, err, cerr)
				}
				if err == nil {
					if !reflect.DeepEqual(route, conn.Route) || !reflect.DeepEqual(paths, conn.Segments) {
						t.Fatalf("step %d %+v: LaneBook reserved %v %v, CCN %v %v",
							i, st, route, paths, conn.Route, conn.Segments)
					}
					if err := book.Configure(paths); err != nil {
						t.Fatalf("step %d: %v", i, err)
					}
					if err := ccn.Configure(conn); err != nil {
						t.Fatalf("step %d: CCN: %v", i, err)
					}
					lives = append(lives, live{paths, conn})
				}
				following = following && st.n == 1
				if following {
					tx, rx, hops, perr := pat.establish(st.src, st.dst)
					if (err == nil) != (perr == nil) {
						t.Fatalf("step %d %+v: LaneBook err %v, pattern err %v", i, st, err, perr)
					}
					if err == nil {
						path := paths[0]
						if hops != len(route)-1 ||
							tx != pm.At(st.src).Tx[path[0].Circuit.In.Lane] ||
							rx != pm.At(st.dst).Rx[path[len(path)-1].Circuit.Out.Lane] {
							t.Fatalf("step %d %+v: pattern allocator took other lanes or %d hops than %v",
								i, st, hops, path)
						}
					}
				}
			}
			meshes := []*Mesh{bm, cm}
			if following {
				meshes = append(meshes, pm)
			}
			for _, m := range meshes {
				m.Step() // commit the staged configuration writes
			}
			for y := 0; y < h; y++ {
				for x := 0; x < w; x++ {
					c := Coord{X: x, Y: y}
					want := bm.At(c)
					for _, m := range meshes[1:] {
						got := m.At(c)
						for g := range want.R.Out {
							if gl, wl := got.R.Config().Lane(g), want.R.Config().Lane(g); gl != wl {
								t.Fatalf("step %d: router %v lane %d configured %+v, LaneBook's %+v",
									i, c, g, gl, wl)
							}
						}
						for l := range want.Tx {
							if got.Tx[l].Enabled() != want.Tx[l].Enabled() || got.Rx[l].Enabled() != want.Rx[l].Enabled() {
								t.Fatalf("step %d: converter enables at %v lane %d differ", i, c, l)
							}
						}
					}
				}
			}
			if got, want := book.LinkUtilization(), ccn.LinkUtilization(); got != want {
				t.Fatalf("step %d: link utilisation %v, CCN %v", i, got, want)
			}
			lanes := 0
			for _, used := range ccn.outUsed {
				for _, u := range used {
					if u {
						lanes++
					}
				}
			}
			if got, want := book.LaneUtilization(), float64(lanes)/float64(w*h*p.TotalLanes()); got != want {
				t.Fatalf("step %d: lane utilisation %v, CCN's books %v", i, got, want)
			}
			if following && book.LaneUtilization() != pat.utilization() {
				t.Fatalf("step %d: lane utilisation %v, pattern %v", i, book.LaneUtilization(), pat.utilization())
			}
		}
	})
}

// TestReserveRejectAllocs: a request turned away at an endpoint or at a
// hop allocates at most its error, and the error reads exactly as the
// formatted message the allocator has always returned.
func TestReserveRejectAllocs(t *testing.T) {
	// On a 6×1 mesh (both routes of a row are the same), three lane
	// paths (0,0)->(2,0) leave one free East lane at (1,0) and one free
	// tile output at (2,0); four (3,0)->(4,0) exhaust (3,0)'s tile
	// inputs and East lanes and (4,0)'s tile outputs.
	b, _ := newBook(6, 1, obs.NewRegistry())
	for _, req := range []struct {
		src, dst Coord
		n        int
	}{{Coord{X: 0}, Coord{X: 2}, 3}, {Coord{X: 3}, Coord{X: 4}, 4}} {
		if _, _, err := b.Reserve(req.src, req.dst, req.n); err != nil {
			t.Fatal(err)
		}
	}
	for _, req := range []struct {
		src, dst Coord
		n        int
		want     string
	}{
		{Coord{X: 3}, Coord{X: 1}, 1, "mesh: 0 free tile input lanes at (3,0), need 1"},
		{Coord{X: 1}, Coord{X: 4}, 1, "mesh: 0 free tile output lanes at (4,0), need 1"},
		{Coord{X: 1}, Coord{X: 2}, 2, "mesh: 1 free tile output lanes at (2,0), need 2"},
		// The first path fits; the second runs out at (1,0).
		{Coord{X: 1}, Coord{X: 3}, 2, "mesh: no free lane (1,0) -> (2,0)"},
		// The first path runs out at (3,0), before the second would at
		// (1,0).
		{Coord{X: 1}, Coord{X: 5}, 2, "mesh: no free lane (3,0) -> (4,0)"},
	} {
		var err error
		allocs := testing.AllocsPerRun(20, func() { _, _, err = b.Reserve(req.src, req.dst, req.n) })
		if err == nil || err.Error() != req.want {
			t.Errorf("%v->%v x%d: error %v, want %q", req.src, req.dst, req.n, err, req.want)
		}
		if allocs > 1 {
			t.Errorf("%v->%v x%d: rejected in %v allocations, want at most 1", req.src, req.dst, req.n, allocs)
		}
	}
}

package pattern

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/core"
)

func TestParseSpatialRoundTrip(t *testing.T) {
	for _, name := range Names() {
		sp, err := ParseSpatial(name)
		if err != nil {
			t.Fatalf("ParseSpatial(%q): %v", name, err)
		}
		if sp.String() != name {
			t.Errorf("round trip %q -> %q", name, sp.String())
		}
	}
	sp, err := ParseSpatial("hotspot:0.7")
	if err != nil {
		t.Fatal(err)
	}
	if sp.Kind != Hotspot || sp.Alpha != 0.7 {
		t.Fatalf("hotspot:0.7 parsed as %+v", sp)
	}
	if sp.String() != "hotspot:0.7" {
		t.Errorf("hotspot round trip: %q", sp.String())
	}
	for _, bad := range []string{"", "nope", "hotspot:0", "hotspot:1.5", "uniform:3"} {
		if _, err := ParseSpatial(bad); err == nil {
			t.Errorf("ParseSpatial(%q) accepted", bad)
		}
	}
}

func TestDeterministicPatterns(t *testing.T) {
	const w, h = 4, 4
	// Transpose: (x,y) -> (y,x).
	sp := Spatial{Kind: Transpose}
	if d := sp.fixedDest(1, w, h); d != 4 { // (1,0) -> (0,1)
		t.Errorf("transpose(1) = %d, want 4", d)
	}
	if d := sp.fixedDest(5, w, h); d != -1 { // (1,1) is a fixed point
		t.Errorf("transpose diagonal = %d, want -1", d)
	}
	// Bit complement: i -> 15-i.
	sp = Spatial{Kind: BitComplement}
	for i := 0; i < w*h; i++ {
		if d := sp.fixedDest(i, w, h); d != w*h-1-i {
			t.Errorf("bitcomp(%d) = %d, want %d", i, d, w*h-1-i)
		}
	}
	// Bit reverse over 4 bits: 0b0001 -> 0b1000.
	sp = Spatial{Kind: BitReverse}
	if d := sp.fixedDest(1, w, h); d != 8 {
		t.Errorf("bitrev(1) = %d, want 8", d)
	}
	if d := sp.fixedDest(0b0011, w, h); d != 0b1100 {
		t.Errorf("bitrev(3) = %d, want 12", d)
	}
}

func TestPermutationIsBijection(t *testing.T) {
	const n = 64
	p := permTable(n, 42)
	seen := map[int]bool{}
	for _, d := range p {
		if d < 0 || d >= n || seen[d] {
			t.Fatalf("permTable not a bijection: %v", p)
		}
		seen[d] = true
	}
	if !reflect.DeepEqual(permTable(n, 42), p) {
		t.Error("permTable not deterministic")
	}
	if reflect.DeepEqual(permTable(n, 43), p) {
		t.Error("permTable ignores the seed")
	}
}

func TestFlowsDeterministicAndSeedSensitive(t *testing.T) {
	sp := Spatial{Kind: Uniform}
	a := sp.Flows(8, 8, 7)
	b := sp.Flows(8, 8, 7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("Flows not deterministic for a fixed seed")
	}
	c := sp.Flows(8, 8, 8)
	if reflect.DeepEqual(a, c) {
		t.Error("Flows ignores the seed")
	}
	for _, f := range a {
		if f.Src == f.Dst {
			t.Fatalf("self flow %+v", f)
		}
	}
	if len(a) != 64 {
		t.Fatalf("uniform flows: got %d, want 64", len(a))
	}
}

func TestUniformDestinationCoverage(t *testing.T) {
	// Many draws from one source must cover all other nodes roughly
	// uniformly: every destination hit, none more than twice the mean.
	const w, h, draws = 4, 4, 16000
	sp := Spatial{Kind: Uniform}
	rng := bitvec.NewXorShift64(99)
	counts := make([]int, w*h)
	for i := 0; i < draws; i++ {
		counts[sp.Draw(rng, 5, w, h)]++
	}
	if counts[5] != 0 {
		t.Fatalf("uniform drew self %d times", counts[5])
	}
	mean := float64(draws) / float64(w*h-1)
	for d, c := range counts {
		if d == 5 {
			continue
		}
		if float64(c) < 0.5*mean || float64(c) > 2*mean {
			t.Errorf("destination %d drawn %d times, mean %.0f", d, c, mean)
		}
	}
}

func TestHotspotConcentration(t *testing.T) {
	const w, h, draws = 4, 4, 40000
	sp := Spatial{Kind: Hotspot, Alpha: 0.6}
	hot := HotspotNode(w, h)
	rng := bitvec.NewXorShift64(123)
	hits := 0
	for i := 0; i < draws; i++ {
		if sp.Draw(rng, 0, w, h) == hot {
			hits++
		}
	}
	// Expected fraction: alpha plus the uniform share of the hotspot.
	want := 0.6 + 0.4/float64(w*h-1)
	got := float64(hits) / draws
	if math.Abs(got-want) > 0.02 {
		t.Errorf("hotspot fraction %.3f, want %.3f +- 0.02", got, want)
	}
}

func TestNeighbourDrawsAdjacent(t *testing.T) {
	const w, h = 5, 3
	sp := Spatial{Kind: Neighbour}
	rng := bitvec.NewXorShift64(5)
	for src := 0; src < w*h; src++ {
		for i := 0; i < 50; i++ {
			d := sp.Draw(rng, src, w, h)
			dx := abs(d%w - src%w)
			dy := abs(d/w - src/w)
			if dx+dy != 1 {
				t.Fatalf("neighbour draw %d from %d is not adjacent", d, src)
			}
		}
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// ProbWeights returns the destination probability distribution of words
// injected at src — the analytic counterpart of Draw. The map holds
// every destination in the support, including those with probability
// 0 (hotspot:1), and sums to 1 (or is empty for a fixed point of a
// deterministic pattern). It is the reference that PortFlows' inline
// probabilities are checked against.
func (sp Spatial) ProbWeights(src, w, h int, seed uint64) map[int]float64 {
	n := w * h
	out := map[int]float64{}
	switch sp.Kind {
	case Uniform:
		for d := 0; d < n; d++ {
			if d != src {
				out[d] = 1 / float64(n-1)
			}
		}
	case Hotspot:
		hot := HotspotNode(w, h)
		a := sp.alpha()
		if src == hot {
			a = 0
		}
		for d := 0; d < n; d++ {
			if d == src {
				continue
			}
			p := (1 - a) / float64(n-1)
			if d == hot {
				p += a
			}
			out[d] = p
		}
	case Neighbour:
		nb := neighbours(src, w, h)
		for _, d := range nb {
			out[d] += 1 / float64(len(nb))
		}
	case Permutation:
		d := permTable(n, seed)[src]
		if d != src {
			out[d] = 1
		}
	default:
		if d := sp.fixedDest(src, w, h); d >= 0 {
			out[d] = 1
		}
	}
	return out
}

// referencePortFlows is the projection as a full N² scan: every
// source's ProbWeights map, accumulated into a port-pair map in sorted
// destination order. PortFlows must match it bit for bit.
func referencePortFlows(sp Spatial, w, h, obs int, seed uint64) []PortFlow {
	n := w * h
	acc := map[[2]core.Port]float64{}
	for src := 0; src < n; src++ {
		ws := sp.ProbWeights(src, w, h, seed)
		// Accumulate in sorted destination order: distinct destinations can
		// fold into the same port pair, and float addition is not
		// associative, so ranging the map directly would make the low bits
		// of the flow weights depend on iteration order.
		dsts := make([]int, 0, len(ws))
		for dst := range ws {
			dsts = append(dsts, dst)
		}
		sort.Ints(dsts)
		for _, dst := range dsts {
			in, out, ok := portsThrough(src, dst, obs, w)
			if !ok {
				continue
			}
			acc[[2]core.Port{in, out}] += ws[dst]
		}
	}
	keys := make([][2]core.Port, 0, len(acc))
	for k := range acc {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	out := make([]PortFlow, 0, len(keys))
	for _, k := range keys {
		out = append(out, PortFlow{In: k[0], Out: k[1], Weight: acc[k]})
	}
	return out
}

// checkPortFlows compares PortFlows against the reference scan: the
// same port pairs in the same order, with bit-identical weights.
func checkPortFlows(t *testing.T, sp Spatial, w, h, obs int, seed uint64) {
	t.Helper()
	got := PortFlows(sp, w, h, obs, seed)
	want := referencePortFlows(sp, w, h, obs, seed)
	if len(got) != len(want) {
		t.Fatalf("%v %dx%d obs %d seed %d: %d flows, reference has %d\ngot  %v\nwant %v",
			sp, w, h, obs, seed, len(got), len(want), got, want)
	}
	for i, g := range got {
		r := want[i]
		if g.In != r.In || g.Out != r.Out || math.Float64bits(g.Weight) != math.Float64bits(r.Weight) {
			t.Fatalf("%v %dx%d obs %d seed %d: flow %d is %+v, reference %+v",
				sp, w, h, obs, seed, i, g, r)
		}
	}
}

// TestPortFlowsMatchesReference checks the row-and-column projection
// against the N² scan on every pattern, every mesh up to 9×9 and every
// observed node.
func TestPortFlowsMatchesReference(t *testing.T) {
	specs := append(Names(), "hotspot:0.3", "hotspot:1")
	for _, spec := range specs {
		sp, err := ParseSpatial(spec)
		if err != nil {
			t.Fatal(err)
		}
		seeds := []uint64{1}
		if sp.Kind == Permutation {
			seeds = []uint64{1, 2}
		}
		for w := 1; w <= 9; w++ {
			for h := 1; h <= 9; h++ {
				if w*h < 2 {
					continue
				}
				for obs := 0; obs < w*h; obs++ {
					for _, seed := range seeds {
						checkPortFlows(t, sp, w, h, obs, seed)
					}
				}
			}
		}
	}
}

// FuzzPortFlows checks the projection against the reference scan on
// generated cases. Byte layout: mesh width, mesh height, observed node
// (two bytes), spatial pattern, hotspot fraction (two bytes), seed (two
// bytes). Missing bytes read as zero, so every input decodes to a valid
// case: a 1–16 × 1–16 mesh, any observed node, any pattern and a
// hotspot fraction in (0,1].
func FuzzPortFlows(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		w, h := 1+next()%16, 1+next()%16
		obs := (next()<<8 | next()) % (w * h)
		names := Names()
		sp, err := ParseSpatial(names[next()%len(names)])
		if err != nil {
			t.Fatal(err)
		}
		if frac := float64((next()<<8|next())+1) / (1 << 16); sp.Kind == Hotspot {
			sp.Alpha = frac
		}
		checkPortFlows(t, sp, w, h, obs, uint64(next()<<8|next()))
	})
}

// TestPortFlowsAllocs pins the projection's cost: a fixed handful of
// allocations whatever the mesh size (the N² scan made one map and one
// sorted slice per source).
func TestPortFlowsAllocs(t *testing.T) {
	sp := Spatial{Kind: Hotspot, Alpha: 1}
	for _, m := range []int{16, 64} {
		obs := HotspotNode(m, m)
		allocs := testing.AllocsPerRun(3, func() { PortFlows(sp, m, m, obs, 1) })
		if allocs > 8 {
			t.Errorf("%dx%d hotspot:1 projection: %.0f allocations, want <= 8", m, m, allocs)
		}
	}
}

// BenchmarkPortFlows64x64 times the hotspot:1 projection onto the
// centre of a 64×64 mesh, as the 64×64 hotspot study runs it.
func BenchmarkPortFlows64x64(b *testing.B) {
	sp := Spatial{Kind: Hotspot, Alpha: 1}
	obs := HotspotNode(64, 64)
	b.ReportAllocs()
	var flows []PortFlow
	for i := 0; i < b.N; i++ {
		flows = PortFlows(sp, 64, 64, obs, 1)
	}
	if len(flows) == 0 {
		b.Fatal("empty projection")
	}
}

func TestProbWeightsSumToOne(t *testing.T) {
	const w, h = 4, 4
	for _, sp := range []Spatial{
		{Kind: Uniform}, {Kind: Hotspot, Alpha: 0.3}, {Kind: Neighbour},
		{Kind: Transpose}, {Kind: BitComplement}, {Kind: BitReverse},
		{Kind: Permutation},
	} {
		for src := 0; src < w*h; src++ {
			ws := sp.ProbWeights(src, w, h, 3)
			sum := 0.0
			for d, p := range ws {
				if d == src {
					t.Fatalf("%v: self weight at %d", sp, src)
				}
				sum += p
			}
			if len(ws) == 0 {
				continue // fixed point of a deterministic pattern
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Errorf("%v src %d: weights sum to %v", sp, src, sum)
			}
		}
	}
}

func TestPortFlowsConservation(t *testing.T) {
	// Total weight through all routers' tile-exit ports must equal the
	// total injected weight: every word is injected once and ejected
	// once somewhere.
	const w, h = 4, 4
	for _, sp := range []Spatial{{Kind: Uniform}, {Kind: Hotspot}, {Kind: Transpose}} {
		injected, ejected := 0.0, 0.0
		for obs := 0; obs < w*h; obs++ {
			for _, f := range PortFlows(sp, w, h, obs, 1) {
				if f.In == core.Tile {
					injected += f.Weight
				}
				if f.Out == core.Tile {
					ejected += f.Weight
				}
			}
		}
		want := 0.0
		for src := 0; src < w*h; src++ {
			for _, p := range sp.ProbWeights(src, w, h, 1) {
				want += p
			}
		}
		if math.Abs(injected-want) > 1e-9 || math.Abs(ejected-want) > 1e-9 {
			t.Errorf("%v: injected %.6f ejected %.6f want %.6f", sp, injected, ejected, want)
		}
	}
}

func TestPortFlowsHotspotConcentratesAtCentre(t *testing.T) {
	const w, h = 4, 4
	hot := HotspotNode(w, h)
	sumAt := func(obs int) float64 {
		total := 0.0
		for _, f := range PortFlows(Spatial{Kind: Hotspot, Alpha: 0.8}, w, h, obs, 1) {
			if f.Out == core.Tile {
				total += f.Weight
			}
		}
		return total
	}
	if sumAt(hot) < 5*sumAt(0) {
		t.Errorf("hotspot tile delivery at centre %.3f not >> corner %.3f", sumAt(hot), sumAt(0))
	}
}

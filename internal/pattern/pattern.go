// Package pattern generates synthetic NoC traffic: spatial patterns
// (who talks to whom on a W×H mesh) composed with stochastic temporal
// injection processes (when each word is offered). Together they replace
// hand-mapped application workloads with the standard evaluation
// vocabulary of the NoC literature — uniform-random, transpose,
// bit-complement, bit-reverse, hotspot, nearest-neighbour and seeded
// permutations, each drivable by constant-rate, Bernoulli, Poisson or
// bursty on-off injection.
//
// The package is deliberately kernel-friendly: every generator is
// deterministic given a seed, every temporal process samples its next
// arrival directly (no per-cycle coin flips), and the Source component
// implements sim.Timed — so an idle source is skipped, and a world of
// sparse sources fast-forwards to the next arrival instead of polling
// every cycle. See Source for the contract.
package pattern

import (
	"fmt"
	"math/bits"
	"strconv"
	"strings"

	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/sweep"
)

// SpatialKind enumerates the built-in spatial patterns.
type SpatialKind int

const (
	// Uniform sends each word to a destination drawn uniformly from all
	// other nodes.
	Uniform SpatialKind = iota
	// Transpose sends (x,y) to (y,x) (folded modulo the mesh dimensions
	// when the mesh is not square). Diagonal nodes generate no traffic.
	Transpose
	// BitComplement sends node i to node N-1-i — for power-of-two N the
	// bitwise complement of the node index.
	BitComplement
	// BitReverse sends node i to the bit-reversal of i within the index
	// width (folded modulo N for non-power-of-two meshes).
	BitReverse
	// Hotspot sends a fraction Alpha of the traffic to one hotspot node
	// (the mesh centre) and the rest uniformly. The hotspot itself sends
	// uniformly.
	Hotspot
	// Neighbour sends each word to one of the node's 2–4 mesh
	// neighbours, drawn uniformly.
	Neighbour
	// Permutation fixes a random node permutation derived from the seed
	// and sends every word of node i to perm(i). Fixed points generate
	// no traffic.
	Permutation
)

// DefaultHotspotAlpha is the hotspot traffic fraction when unspecified.
const DefaultHotspotAlpha = 0.5

// Spatial is a parsed spatial pattern: a kind plus its parameters.
type Spatial struct {
	// Kind selects the pattern.
	Kind SpatialKind
	// Alpha is the hotspot traffic fraction in (0,1]; only meaningful
	// for Hotspot.
	Alpha float64
}

// Names returns the parseable spatial pattern names, in a fixed order.
func Names() []string {
	return []string{"uniform", "transpose", "bitcomp", "bitrev", "hotspot", "neighbour", "perm"}
}

// ParseSpatial resolves a spatial pattern name. Hotspot takes an
// optional traffic fraction as "hotspot:0.7" (default 0.5).
func ParseSpatial(s string) (Spatial, error) {
	name, arg, hasArg := strings.Cut(strings.ToLower(strings.TrimSpace(s)), ":")
	sp := Spatial{}
	switch name {
	case "uniform", "random":
		sp.Kind = Uniform
	case "transpose":
		sp.Kind = Transpose
	case "bitcomp", "bit-complement", "complement":
		sp.Kind = BitComplement
	case "bitrev", "bit-reverse", "reverse":
		sp.Kind = BitReverse
	case "hotspot":
		sp.Kind = Hotspot
		sp.Alpha = DefaultHotspotAlpha
	case "neighbour", "neighbor", "nearest-neighbour":
		sp.Kind = Neighbour
	case "perm", "permutation":
		sp.Kind = Permutation
	default:
		return Spatial{}, fmt.Errorf("pattern: unknown spatial pattern %q (have %s)",
			s, strings.Join(Names(), ", "))
	}
	if hasArg {
		if sp.Kind != Hotspot {
			return Spatial{}, fmt.Errorf("pattern: %s takes no parameter (got %q)", name, arg)
		}
		a, err := strconv.ParseFloat(arg, 64)
		// Written so that NaN, which fails every comparison, is rejected.
		if err != nil || !(a > 0 && a <= 1) {
			return Spatial{}, fmt.Errorf("pattern: hotspot fraction %q out of (0,1]", arg)
		}
		sp.Alpha = a
	}
	return sp, nil
}

// String renders the pattern parseably.
func (sp Spatial) String() string {
	switch sp.Kind {
	case Uniform:
		return "uniform"
	case Transpose:
		return "transpose"
	case BitComplement:
		return "bitcomp"
	case BitReverse:
		return "bitrev"
	case Hotspot:
		if sp.Alpha != 0 && sp.Alpha != DefaultHotspotAlpha {
			return "hotspot:" + strconv.FormatFloat(sp.Alpha, 'g', -1, 64)
		}
		return "hotspot"
	case Neighbour:
		return "neighbour"
	case Permutation:
		return "perm"
	default:
		return fmt.Sprintf("spatial(%d)", int(sp.Kind))
	}
}

// alpha returns the effective hotspot fraction.
func (sp Spatial) alpha() float64 {
	if sp.Alpha == 0 {
		return DefaultHotspotAlpha
	}
	return sp.Alpha
}

// HotspotNode returns the pattern's hotspot node index on a W×H mesh:
// the mesh centre. It is also the natural router to observe in
// single-router projections of any pattern.
func HotspotNode(w, h int) int { return (h/2)*w + w/2 }

// fixedDest returns the single destination of a deterministic pattern
// for the given source node, or -1 when the node generates no traffic
// (a fixed point). Permutation requires the seed-derived table, so it is
// resolved by Flows/prob instead.
func (sp Spatial) fixedDest(src, w, h int) int {
	n := w * h
	switch sp.Kind {
	case Transpose:
		x, y := src%w, src/w
		d := (x%h)*w + y%w
		if d == src {
			return -1
		}
		return d
	case BitComplement:
		d := n - 1 - src
		if d == src {
			return -1
		}
		return d
	case BitReverse:
		k := bits.Len(uint(n - 1))
		d := int(bits.Reverse64(uint64(src)) >> (64 - k))
		d %= n
		if d == src {
			return -1
		}
		return d
	}
	return -1
}

// permTable returns the seed-derived node permutation (Fisher–Yates over
// a SplitMix-seeded xorshift stream).
func permTable(n int, seed uint64) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	rng := bitvec.NewXorShift64(sweep.Mix64(seed ^ 0x5045524D5554)) // "PERMUT"
	for i := n - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// neighbours returns the mesh neighbours of a node in a fixed
// (north, east, south, west) order.
func neighbours(src, w, h int) []int {
	x, y := src%w, src/w
	var out []int
	if y > 0 {
		out = append(out, (y-1)*w+x)
	}
	if x+1 < w {
		out = append(out, y*w+x+1)
	}
	if y+1 < h {
		out = append(out, (y+1)*w+x)
	}
	if x > 0 {
		out = append(out, y*w+x-1)
	}
	return out
}

// Flow is one source→destination traffic relation on the mesh, in node
// indices (row-major, y*w+x).
type Flow struct {
	Src, Dst int
}

// Flows materializes the pattern into one flow per source node. For
// deterministic patterns the destinations are the pattern's fixed
// targets; for stochastic patterns (uniform, hotspot, neighbour) each
// source draws its destination once from a seed-derived stream — the
// natural reading for a circuit-switched fabric, where a flow is a
// circuit held for the whole run. Nodes whose pattern maps them to
// themselves contribute no flow.
func (sp Spatial) Flows(w, h int, seed uint64) []Flow {
	n := w * h
	var perm []int
	if sp.Kind == Permutation {
		perm = permTable(n, seed)
	}
	flows := make([]Flow, 0, n)
	for src := 0; src < n; src++ {
		var dst int
		switch sp.Kind {
		case Permutation:
			dst = perm[src]
		case Uniform, Hotspot, Neighbour:
			rng := bitvec.NewXorShift64(sweep.Seed(seed+1, src))
			dst = sp.Draw(rng, src, w, h)
		default:
			dst = sp.fixedDest(src, w, h)
		}
		if dst == src || dst < 0 {
			continue
		}
		flows = append(flows, Flow{Src: src, Dst: dst})
	}
	return flows
}

// Draw samples one destination for a word injected at src, using the
// given random stream. Deterministic patterns return their fixed target
// (or src itself for a fixed point, meaning "no traffic").
func (sp Spatial) Draw(rng *bitvec.XorShift64, src, w, h int) int {
	n := w * h
	switch sp.Kind {
	case Uniform:
		return drawOther(rng, src, n)
	case Hotspot:
		hot := HotspotNode(w, h)
		if src != hot && rng.Bool(sp.alpha()) {
			return hot
		}
		return drawOther(rng, src, n)
	case Neighbour:
		nb := neighbours(src, w, h)
		return nb[rng.Intn(len(nb))]
	case Permutation:
		// The per-word draw of a permutation is its fixed table entry;
		// callers that need it should use Flows. Fall back to uniform so
		// a misuse is at least well defined.
		return drawOther(rng, src, n)
	default:
		d := sp.fixedDest(src, w, h)
		if d < 0 {
			return src
		}
		return d
	}
}

// drawOther draws uniformly from [0,n) excluding self.
func drawOther(rng *bitvec.XorShift64, self, n int) int {
	d := rng.Intn(n - 1)
	if d >= self {
		d++
	}
	return d
}

// PortFlow is one aggregated input-port→output-port traffic relation at
// an observed router: the expected number of words crossing that
// port pair per word injected per node under the pattern.
type PortFlow struct {
	// In and Out are the router's ports (core.Tile for the local tile).
	In, Out core.Port
	// Weight is the flow's rate multiplier: words per cycle through the
	// port pair when every node injects one word per cycle. Multiply by
	// the per-node injection rate for the absolute rate.
	Weight float64
}

// PortFlows projects the spatial pattern onto the single router at
// observed node obs: every source→destination relation is XY-routed
// across the W×H mesh, and relations whose route crosses obs contribute
// their probability to the (entry port, exit port) pair they use there.
// This is the paper's single-router measurement methodology extended to
// synthetic patterns: the packet-switched and TDM models are
// single-router models, and the projection computes the traffic matrix
// such a router would see at that position in the mesh. Flows are
// returned in a fixed port-major order.
//
// An XY route crosses obs = (ox, oy) only on its X leg, which runs
// along the source's row, or on its Y leg, which runs along the
// destination's column. So only sources in row oy and destinations in
// column ox (for every other source) are candidates, and of those the
// scan walks only the coordinate ranges whose leg reaches obs:
// O(N·(W+H)) pairs instead of N², every one of them crossing. They are
// visited in ascending source-then-destination order, so every port
// pair receives the same float additions in the same order as a full N²
// scan would give it, and the weights are bit-identical to that scan's.
// A relation with probability 0 (every non-hotspot destination under
// hotspot:1) still creates its port pair. Each source's destination
// distribution is resolved once, so no visited pair divides.
func PortFlows(sp Spatial, w, h, obs int, seed uint64) []PortFlow {
	n := w * h
	ox, oy := obs%w, obs/w
	var perm []int
	if sp.Kind == Permutation {
		perm = permTable(n, seed)
	}
	// Port pairs, indexed by core.Port (Tile through West).
	var weight [5][5]float64
	var present [5][5]bool
	visit := func(d *destDist, dx, dy int) {
		p, ok := d.prob(dy*w+dx, dx, dy)
		if !ok {
			return
		}
		// The X-then-Y route enters obs by the port by which the
		// Y-then-X route from obs back to the source leaves it.
		in := core.ExitPort(ox, oy, d.sx, d.sy, false)
		out := core.ExitPort(ox, oy, dx, dy, true)
		weight[in][out] += p
		present[in][out] = true
	}
	for src, sy := 0, 0; sy < h; sy++ {
		for sx := 0; sx < w; sx, src = sx+1, src+1 {
			d := sp.destDist(src, sx, sy, w, h, perm)
			if sy != oy {
				// The Y leg down column ox crosses obs only when oy
				// lies between sy and dy.
				lo, hi := beyond(sy, oy, h)
				for dy := lo; dy <= hi; dy++ {
					visit(&d, ox, dy)
				}
				continue
			}
			// A route from row oy crosses obs on its X leg when ox
			// lies between sx and dx, and otherwise not at all.
			lo, hi := beyond(sx, ox, w)
			for dy := 0; dy < h; dy++ {
				for dx := lo; dx <= hi; dx++ {
					visit(&d, dx, dy)
				}
			}
		}
	}
	// XY routing admits at most 16 port pairs: four exits each from the
	// tile and the two horizontal entries, and two from each vertical one.
	flows := make([]PortFlow, 0, 16)
	for in := range present {
		for out, ok := range present[in] {
			if ok {
				flows = append(flows, PortFlow{In: core.Port(in), Out: core.Port(out), Weight: weight[in][out]})
			}
		}
	}
	return flows
}

// destDist is one source's destination distribution — the analytic
// counterpart of Draw — resolved once per source for PortFlows.
type destDist struct {
	src, sx, sy int
	kind        destKind
	// fixed is the one destination of a deterministic pattern, or -1
	// for a fixed point.
	fixed int
	// p is the probability of every destination in the support; hot,
	// when not -1, is the one destination with probability pHot.
	p, pHot float64
	hot     int
}

// destKind is the shape of a source's destination distribution.
type destKind uint8

const (
	spread    destKind = iota // every other node: uniform, hotspot
	adjacent                  // the node's mesh neighbours
	singleDst                 // one fixed destination
)

// destDist resolves the destination distribution of source src at
// (sx, sy). perm is the permutation table, needed only for Permutation.
func (sp Spatial) destDist(src, sx, sy, w, h int, perm []int) destDist {
	d := destDist{src: src, sx: sx, sy: sy, fixed: -1, hot: -1}
	switch sp.Kind {
	case Uniform:
		d.p = 1 / float64(w*h-1)
	case Hotspot:
		hot := HotspotNode(w, h)
		a := sp.alpha()
		if src == hot {
			a = 0
		}
		d.p = (1 - a) / float64(w*h-1)
		d.hot, d.pHot = hot, d.p+a
	case Neighbour:
		d.kind = adjacent
		degree := 0
		for _, has := range [4]bool{sy > 0, sx+1 < w, sy+1 < h, sx > 0} {
			if has {
				degree++
			}
		}
		d.p = 1 / float64(degree)
	case Permutation:
		d.kind, d.fixed = singleDst, perm[src]
	default:
		d.kind, d.fixed = singleDst, sp.fixedDest(src, w, h)
	}
	return d
}

// prob returns the probability that a word from the source is addressed
// to dst at (dx, dy), and whether dst is in the support of the source's
// destination distribution at all. A destination can be in the support
// with probability 0: under hotspot:1 every non-hotspot destination of
// a non-hotspot source is.
func (d *destDist) prob(dst, dx, dy int) (float64, bool) {
	switch {
	case dst == d.src:
		return 0, false
	case d.kind == singleDst:
		return 1, dst == d.fixed
	case d.kind == adjacent:
		near := (d.sy == dy && (dx == d.sx+1 || dx == d.sx-1)) ||
			(d.sx == dx && (dy == d.sy+1 || dy == d.sy-1))
		return d.p, near
	case dst == d.hot:
		return d.pHot, true
	default:
		return d.p, true
	}
}

// beyond returns the range [lo, hi] of the coordinates c in [0, n) for
// which o lies between s and c, both included.
func beyond(s, o, n int) (lo, hi int) {
	switch {
	case s < o:
		return o, n - 1
	case s > o:
		return 0, o
	default:
		return 0, n - 1
	}
}

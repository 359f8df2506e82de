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
// implements sim.Timed — so a sparse pattern fast-forwards under the
// event kernel instead of polling every cycle. See Source for the
// contract.
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
			rng := bitvec.NewXorShift64(sweep.Mix64(seed + uint64(src)*0x9E3779B97F4A7C15 + 1))
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
// destination's column. So only sources in row oy (against every
// destination) and destinations in column ox (for every other source)
// are visited: O(N·(W+H)) pairs instead of N². They are visited in
// ascending source-then-destination order, so every port pair receives
// the same float additions in the same order as a full N² scan would
// give it, and the weights are bit-identical to that scan's. A relation
// with probability 0 (every non-hotspot destination under hotspot:1)
// still creates its port pair.
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
	for src := 0; src < n; src++ {
		first, step := ox, w
		if src/w == oy {
			first, step = 0, 1
		}
		for dst := first; dst < n; dst += step {
			p, ok := sp.prob(src, dst, w, h, perm)
			if !ok {
				continue
			}
			in, out, ok := portsThrough(src, dst, obs, w)
			if !ok {
				continue
			}
			weight[in][out] += p
			present[in][out] = true
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

// prob returns the probability that a word injected at src is addressed
// to dst — the analytic counterpart of Draw — and whether dst is in the
// support of src's destination distribution at all. A destination can
// be in the support with probability 0: under hotspot:1 every
// non-hotspot destination of a non-hotspot source is. perm is the
// permutation table, needed only for Permutation.
func (sp Spatial) prob(src, dst, w, h int, perm []int) (float64, bool) {
	if dst == src {
		return 0, false
	}
	n := w * h
	switch sp.Kind {
	case Uniform:
		return 1 / float64(n-1), true
	case Hotspot:
		hot := HotspotNode(w, h)
		a := sp.alpha()
		if src == hot {
			a = 0
		}
		p := (1 - a) / float64(n-1)
		if dst == hot {
			p += a
		}
		return p, true
	case Neighbour:
		sx, sy, dx, dy := src%w, src/w, dst%w, dst/w
		adjacent := (sy == dy && (dx == sx+1 || dx == sx-1)) ||
			(sx == dx && (dy == sy+1 || dy == sy-1))
		if !adjacent {
			return 0, false
		}
		degree := 0
		for _, has := range [4]bool{sy > 0, sx+1 < w, sy+1 < h, sx > 0} {
			if has {
				degree++
			}
		}
		return 1 / float64(degree), true
	case Permutation:
		return 1, perm[src] == dst
	default:
		return 1, sp.fixedDest(src, w, h) == dst
	}
}

// portsThrough XY-routes src→dst (X first, then Y) and reports the entry
// and exit ports at node obs, if the route passes through it.
func portsThrough(src, dst, obs, w int) (in, out core.Port, ok bool) {
	if src == dst {
		return 0, 0, false
	}
	sx, sy := src%w, src/w
	dx, dy := dst%w, dst/w
	ox, oy := obs%w, obs/w

	// The XY route: move along row sy from sx to dx, then along column
	// dx from sy to dy. Check whether obs lies on either leg.
	onX := oy == sy && between(ox, sx, dx)
	onY := ox == dx && between(oy, sy, dy)
	if !onX && !onY {
		return 0, 0, false
	}

	// Entry port: where the word comes from, seen from obs.
	switch {
	case ox == sx && oy == sy:
		in = core.Tile
	case onX: // arrived moving horizontally
		if dx > sx {
			in = core.West
		} else {
			in = core.East
		}
	default: // arrived moving vertically on the Y leg
		if dy > sy {
			in = core.North
		} else {
			in = core.South
		}
	}

	// Exit port: where the word goes next.
	switch {
	case ox == dx && oy == dy:
		out = core.Tile
	case onX && ox != dx: // keeps moving horizontally
		if dx > sx {
			out = core.East
		} else {
			out = core.West
		}
	default: // turns or continues vertically
		if dy > sy {
			out = core.South
		} else {
			out = core.North
		}
	}
	return in, out, true
}

// between reports whether v lies on the inclusive segment [a,b] (in
// either direction).
func between(v, a, b int) bool {
	if a > b {
		a, b = b, a
	}
	return v >= a && v <= b
}

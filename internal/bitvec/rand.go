package bitvec

// XorShift64 is a small, fast, deterministic pseudo-random number generator
// (xorshift64*). The NoC simulations must be reproducible run to run, and we
// frequently need one independent stream per traffic source, so a tiny
// value-type PRNG is preferable to sharing a math/rand source.
//
// This is the only sanctioned randomness source in simulation code: every
// stream is constructed from an explicit seed, so a run is a pure function
// of its scenario and seed, which is what the byte-identical kernel,
// sweep-worker and idle-replay guarantees rest on. Wall-clock reads,
// global math/rand, and OS/hardware entropy are rejected in simulation
// packages by the nondeterm analyzer (cmd/nocvet), whose allowlist is
// anchored on this package (nocvet.SanctionedRNG); see
// TestXorShift64IsTheSanctionedSource.
type XorShift64 struct {
	state uint64
}

// NewXorShift64 returns a generator seeded with seed. A zero seed is
// remapped to a fixed non-zero constant because the xorshift state must
// never be zero.
func NewXorShift64(seed uint64) *XorShift64 {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &XorShift64{state: seed}
}

// Uint64 returns the next 64-bit pseudo-random value.
func (x *XorShift64) Uint64() uint64 {
	s := x.state
	s ^= s >> 12
	s ^= s << 25
	s ^= s >> 27
	x.state = s
	return s * 0x2545F4914F6CDD1D
}

// Uint16 returns the next 16-bit pseudo-random value.
func (x *XorShift64) Uint16() uint16 { return uint16(x.Uint64() >> 48) }

// Float64 returns a pseudo-random value in [0,1).
func (x *XorShift64) Float64() float64 {
	return float64(x.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (x *XorShift64) Bool(p float64) bool { return x.Float64() < p }

// Intn returns a pseudo-random value in [0,n). It panics if n <= 0.
func (x *XorShift64) Intn(n int) int {
	if n <= 0 {
		panic("bitvec: Intn with non-positive bound")
	}
	return int(x.Uint64() % uint64(n))
}

// FlipGen generates a sequence of fixed-width data words with a controlled
// expected bit-flip fraction between consecutive words. This is the data
// knob of the paper's traffic model (Section 6): best case p=0 transmits
// constant zeros, worst case p=1 toggles every bit each word, and the
// typical case p=0.5 is random data.
type FlipGen struct {
	rng   *XorShift64
	width int
	p     float64
	prev  uint64
}

// NewFlipGen returns a generator of width-bit words whose consecutive words
// differ in an expected fraction p of their bits. Width must be 1..64 and p
// in [0,1].
func NewFlipGen(width int, p float64, seed uint64) *FlipGen {
	if width < 1 || width > 64 {
		panic("bitvec: FlipGen width out of range")
	}
	if p < 0 || p > 1 {
		panic("bitvec: FlipGen probability out of range")
	}
	return &FlipGen{rng: NewXorShift64(seed), width: width, p: p}
}

// Next returns the next data word. The first word is 0 (idle lanes drive
// zero, and the paper's best case transmits only zeros).
func (g *FlipGen) Next() uint64 {
	var mask uint64
	switch g.p {
	case 0:
		mask = 0
	case 1:
		mask = (1 << uint(g.width)) - 1
	default:
		for i := 0; i < g.width; i++ {
			if g.rng.Bool(g.p) {
				mask |= 1 << uint(i)
			}
		}
	}
	g.prev ^= mask
	return g.prev
}

package packetsw

import (
	"testing"

	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/sim"
)

// drive feeds a fixed flit sequence into a port, one flit per cycle.
func drive(w *sim.World, slot *Flit, seq []Flit) {
	i := 0
	w.Add(&sim.Func{OnEval: func() {
		if i < len(seq) {
			*slot = seq[i]
			i++
		} else {
			*slot = Flit{}
		}
	}})
}

func TestWormholeOutputVCLockedUntilTail(t *testing.T) {
	// Two multi-flit packets on the SAME VC from different inputs to the
	// same output: their flits must not interleave — the output VC is
	// owned until the tail passes (wormhole discipline).
	p := DefaultParams()
	r := NewRouter(p, PortRoute)
	var north, west Flit
	r.ConnectIn(core.North, &north)
	r.ConnectIn(core.West, &west)
	w := sim.NewWorld()
	w.Add(r)
	pa := MakePacket(0, HeadData(core.East), []uint16{0xA1, 0xA2, 0xA3})
	pb := MakePacket(0, HeadData(core.East), []uint16{0xB1, 0xB2, 0xB3})
	drive(w, &north, pa)
	drive(w, &west, pb)
	var seen []Flit
	w.Add(&sim.Func{OnEval: func() {
		if f := r.Out[core.East]; f.Valid() {
			seen = append(seen, f)
		}
	}})
	w.Run(60)
	if len(seen) != 8 {
		t.Fatalf("East emitted %d flits, want 8", len(seen))
	}
	// Group check: once a head passes, all its packet's flits precede the
	// other packet's head.
	firstOwner := seen[0].Data // 0xA1's head data is the route; check bodies
	_ = firstOwner
	var current uint16
	for _, f := range seen {
		switch f.Kind {
		case Head:
			current = 0
		case Body, Tail:
			if current == 0 {
				current = f.Data & 0xF0
			} else if f.Data&0xF0 != current {
				t.Fatalf("packets interleaved on one VC: %v", seen)
			}
		}
	}
}

func TestDifferentVCsMayInterleaveBetweenPackets(t *testing.T) {
	// Packets on different VCs to the same output interleave flit by flit
	// — that is the virtual-channel router's entire point, and the source
	// of the collision power the paper discusses.
	p := DefaultParams()
	r := NewRouter(p, PortRoute)
	var north, west Flit
	r.ConnectIn(core.North, &north)
	r.ConnectIn(core.West, &west)
	w := sim.NewWorld()
	w.Add(r)
	drive(w, &north, MakePacket(0, HeadData(core.East), []uint16{1, 2, 3, 4, 5}))
	drive(w, &west, MakePacket(1, HeadData(core.East), []uint16{6, 7, 8, 9, 10}))
	var vcs []int
	w.Add(&sim.Func{OnEval: func() {
		if f := r.Out[core.East]; f.Valid() {
			vcs = append(vcs, f.VC)
		}
	}})
	w.Run(60)
	switches := 0
	for i := 1; i < len(vcs); i++ {
		if vcs[i] != vcs[i-1] {
			switches++
		}
	}
	if switches < 4 {
		t.Fatalf("VCs barely interleaved (%d switches in %v)", switches, vcs)
	}
}

func TestSaturatedInputDropsAreCounted(t *testing.T) {
	// An open-loop source faster than the drain must overflow the input
	// FIFO and be counted — drops never pass silently.
	p := DefaultParams()
	r := NewRouter(p, PortRoute)
	var north Flit
	r.ConnectIn(core.North, &north)
	w := sim.NewWorld()
	w.Add(r)
	// Two flits offered per cycle is impossible; instead saturate one VC
	// while its output is blocked by a never-pulsing credit wire.
	var never uint64
	r.ConnectCreditIn(core.East, &never)
	w.Add(&sim.Func{OnEval: func() {
		north = Flit{Kind: HeadTail, VC: 0, Data: HeadData(core.East)}
	}})
	crossed := 0
	for i := 0; i < 100; i++ {
		w.Step()
		if r.Out[core.East].Valid() {
			crossed++
		}
	}
	if r.Dropped() == 0 {
		t.Fatal("overflow not detected")
	}
	// Credits stopped the switch after Depth flits.
	if crossed > p.Depth {
		t.Fatalf("%d flits crossed a credit-blocked output", crossed)
	}
}

func TestRoundRobinFairnessUnderSaturation(t *testing.T) {
	// Three saturating VCs into one output: round-robin must serve them
	// within a few percent of each other.
	p := DefaultParams()
	r := NewRouter(p, PortRoute)
	var north, west, south Flit
	r.ConnectIn(core.North, &north)
	r.ConnectIn(core.West, &west)
	r.ConnectIn(core.South, &south)
	w := sim.NewWorld()
	w.Add(r)
	w.Add(&sim.Func{OnEval: func() {
		north = Flit{Kind: HeadTail, VC: 0, Data: HeadData(core.East)}
		west = Flit{Kind: HeadTail, VC: 1, Data: HeadData(core.East)}
		south = Flit{Kind: HeadTail, VC: 2, Data: HeadData(core.East)}
	}})
	counts := map[int]int{}
	w.Add(&sim.Func{OnEval: func() {
		if f := r.Out[core.East]; f.Valid() {
			counts[f.VC]++
		}
	}})
	w.Run(600)
	total := counts[0] + counts[1] + counts[2]
	if total < 500 {
		t.Fatalf("output underutilized: %d flits in 600 cycles", total)
	}
	for vc, c := range counts {
		share := float64(c) / float64(total)
		if share < 0.30 || share > 0.37 {
			t.Errorf("VC %d share %.3f, want ~1/3", vc, share)
		}
	}
}

func TestBackgroundNoiseDoesNotCorruptPayloads(t *testing.T) {
	// Property: a measured packet stream delivered through a router
	// carrying random cross traffic arrives bit-exact and in order.
	rng := bitvec.NewXorShift64(4242)
	p := DefaultParams()
	r := NewRouter(p, PortRoute)
	var north, west Flit
	r.ConnectIn(core.North, &north)
	r.ConnectIn(core.West, &west)
	w := sim.NewWorld()
	w.Add(r)
	// Measured stream: North VC0 -> Tile, 3-word packets.
	var queue []Flit
	for i := 0; i < 30; i++ {
		base := uint16(i * 16)
		queue = append(queue, MakePacket(0, HeadData(core.Tile),
			[]uint16{base, base + 1, base + 2})...)
	}
	// One flit every other cycle: together with the noise share the tile
	// output stays below saturation, as credit flow control would ensure
	// in a closed-loop network (the drive here is open loop).
	qi, cyc := 0, 0
	w.Add(&sim.Func{OnEval: func() {
		north = Flit{}
		if qi < len(queue) && cyc%2 == 0 {
			north = queue[qi]
			qi++
		}
		cyc++
	}})
	// Noise: random single-flit packets West VC1..3 -> random outputs.
	w.Add(&sim.Func{OnEval: func() {
		west = Flit{}
		if rng.Bool(0.7) {
			dst := core.Port(rng.Intn(4) + 1) // not Tile... East..West + North
			if dst == core.West {
				dst = core.Tile
			}
			west = Flit{Kind: HeadTail, VC: rng.Intn(3) + 1,
				Data: HeadData(dst)}
		}
	}})
	var payload []uint16
	w.Add(&sim.Func{OnEval: func() {
		for _, f := range r.Drain() {
			if f.VC == 0 && (f.Kind == Body || f.Kind == Tail) {
				payload = append(payload, f.Data)
			}
		}
	}})
	w.Run(800)
	if len(payload) != 90 {
		t.Fatalf("delivered %d payload words, want 90", len(payload))
	}
	for i, d := range payload {
		want := uint16(i/3*16 + i%3)
		if d != want {
			t.Fatalf("payload[%d] = %#x, want %#x", i, d, want)
		}
	}
}

package mesh

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// TestSlowTileClockDomain models the paper's per-tile clock domains
// (Section 1, advantage h): a consuming tile running at an eighth of the
// network clock: it acts only on every eighth network edge (cycles 0, 8,
// 16, ...). The window-counter flow control absorbs the rate mismatch —
// the source throttles to the slow tile's rate and nothing is ever lost.
func TestSlowTileClockDomain(t *testing.T) {
	m := newMesh(2, 1)
	src, dst := m.At(Coord{0, 0}), m.At(Coord{1, 0})
	if err := src.EstablishLocal(core.Circuit{
		In: core.LaneID{Port: core.Tile, Lane: 0}, Out: core.LaneID{Port: core.East, Lane: 0},
	}); err != nil {
		t.Fatal(err)
	}
	if err := dst.EstablishLocal(core.Circuit{
		In: core.LaneID{Port: core.West, Lane: 0}, Out: core.LaneID{Port: core.Tile, Lane: 0},
	}); err != nil {
		t.Fatal(err)
	}
	// Fast producer tile at the network clock.
	sent := 0
	m.World().Add(&sim.Func{OnEval: func() {
		if src.Tx[0].Ready() {
			if src.Tx[0].Push(core.DataWord(uint16(sent))) {
				sent++
			}
		}
	}})
	// Slow consumer tile: one pop opportunity every 8 network cycles
	// (slower than the lane's 1-word-per-5-cycles line rate, so flow control
	// must throttle the source).
	consumed := 0
	expected := uint16(0)
	m.World().Add(&sim.Func{OnEval: func() {
		if m.World().Cycle()%8 != 0 {
			return
		}
		if w, ok := dst.Rx[0].Pop(); ok {
			if w.Data != expected {
				t.Errorf("out of order at slow tile: %#x want %#x", w.Data, expected)
			}
			expected++
			consumed++
		}
	}})
	const cycles = 4000
	m.Run(cycles)
	if dst.Rx[0].Dropped() != 0 {
		t.Fatalf("cross-domain transfer dropped %d words", dst.Rx[0].Dropped())
	}
	// Throughput is set by the slow domain: ~1 word per 8 cycles, minus
	// flow-control round trips (window refills cross two routers).
	if consumed < cycles/10 || consumed > cycles/8+2 {
		t.Fatalf("consumed %d words in %d cycles, want ~%d (slow-domain bound)",
			consumed, cycles, cycles/8)
	}
	if src.Tx[0].Stalled() == 0 {
		t.Fatal("fast source never throttled to the slow tile")
	}
	if src.Tx[0].WindowViolations() != 0 {
		t.Fatal("window protocol violated across clock domains")
	}
}

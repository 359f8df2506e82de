package core

import (
	"testing"

	"repro/internal/bitvec"
	"repro/internal/sim"
)

// faultyLane sits between a transmit and a receive converter and flips
// lane bits on demand — a soft-error injector for robustness testing.
type faultyLane struct {
	in       *uint8
	Out      uint8
	flipMask uint8 // XORed onto the lane for one cycle, then cleared
	next     uint8
}

func (f *faultyLane) Eval() {
	f.next = (*f.in ^ f.flipMask) & 0xF
	f.flipMask = 0
}
func (f *faultyLane) Commit() { f.Out = f.next }

// corrupt schedules a bit flip on the next cycle.
func (f *faultyLane) corrupt(mask uint8) { f.flipMask = mask }

func newFaultyPair(t *testing.T) (*TxConverter, *RxConverter, *faultyLane, *sim.World) {
	t.Helper()
	p := DefaultParams()
	tx := NewTxConverter(p, FlowParams{})
	rx := NewRxConverter(p, FlowParams{}, 1<<16)
	tx.SetEnabled(true)
	rx.SetEnabled(true)
	fl := &faultyLane{in: &tx.Out}
	rx.ConnectIn(&fl.Out)
	w := sim.NewWorld()
	w.Add(tx, fl, rx)
	return tx, rx, fl, w
}

func TestFramingRecoversAfterCorruptedDataNibble(t *testing.T) {
	// A soft error in a data nibble corrupts at most that word; framing
	// (counting five nibbles from the VALID header) stays intact and all
	// later words arrive unharmed.
	tx, rx, fl, w := newFaultyPair(t)
	const total = 40
	sent, popped := 0, 0
	var words []Word
	w.Add(&sim.Func{OnEval: func() {
		if sent < total && tx.Ready() {
			if tx.Push(DataWord(uint16(0x1000 + sent))) {
				sent++
			}
		}
		if wd, ok := rx.Pop(); ok {
			words = append(words, wd)
			popped++
		}
	}})
	// Let a few words through, then hit one data nibble.
	w.RunUntil(func() bool { return popped >= 5 }, 200)
	fl.corrupt(0b0110)
	if !w.RunUntil(func() bool { return popped >= total }, 2000) {
		t.Fatalf("stream did not recover: %d/%d words", popped, total)
	}
	corrupted := 0
	for i, wd := range words {
		if wd.Data != uint16(0x1000+i) || wd.Hdr != HdrValid {
			corrupted++
		}
	}
	if corrupted > 1 {
		t.Fatalf("one flipped nibble corrupted %d words", corrupted)
	}
	if rx.Received() != total {
		t.Fatalf("received %d, want %d (no loss of framing)", rx.Received(), total)
	}
}

func TestFramingRecoversAfterCorruptedHeader(t *testing.T) {
	// Killing a header's VALID bit makes the deserializer miss that
	// packet and treat the following data nibbles as noise until the next
	// clean header; it must re-synchronize within a bounded number of
	// words and deliver everything afterwards in order.
	tx, rx, fl, w := newFaultyPair(t)
	const total = 60
	sent := 0
	var words []Word
	headerCycle := -1
	cyc := 0
	w.Add(&sim.Func{OnEval: func() {
		if sent < total && tx.Ready() {
			if tx.Push(DataWord(uint16(0x2000 + sent))) {
				sent++
			}
		}
		// Find a cycle where the lane carries a header nibble (VALID set)
		// and corrupt exactly that nibble once.
		if headerCycle < 0 && cyc > 30 && tx.Out&uint8(HdrValid) != 0 {
			headerCycle = cyc
			fl.corrupt(uint8(HdrValid))
		}
		cyc++
		if wd, ok := rx.Pop(); ok {
			words = append(words, wd)
		}
	}})
	w.Run(total*5 + 100)
	if headerCycle < 0 {
		t.Fatal("never found a header to corrupt")
	}
	if len(words) < total-3 {
		t.Fatalf("lost %d words to one header error", total-len(words))
	}
	// Everything after resynchronization is clean and in order: find the
	// longest clean tail.
	tail := 0
	for i := len(words) - 1; i > 0; i-- {
		if words[i].Data == words[i-1].Data+1 && words[i].Valid() {
			tail++
		} else {
			break
		}
	}
	if tail < total/2 {
		t.Fatalf("stream did not re-synchronize cleanly (clean tail %d)", tail)
	}
}

func TestRandomSoftErrorsNeverWedgeTheLink(t *testing.T) {
	// Property: under sporadic random lane corruption the link keeps
	// moving — the deserializer never deadlocks, and clean traffic
	// resumes after errors stop.
	rng := bitvec.NewXorShift64(31337)
	tx, rx, fl, w := newFaultyPair(t)
	sent := 0
	w.Add(&sim.Func{OnEval: func() {
		if tx.Ready() {
			if tx.Push(DataWord(uint16(sent))) {
				sent++
			}
		}
		rx.Pop()
	}})
	// Phase 1: noisy channel (1% per-cycle corruption).
	for i := 0; i < 2000; i++ {
		if rng.Bool(0.01) {
			fl.corrupt(uint8(rng.Intn(15) + 1))
		}
		w.Step()
	}
	// Phase 2: clean channel; throughput must return to line rate.
	before := rx.Received()
	w.Run(1000)
	delivered := rx.Received() - before
	if delivered < 190 { // 1000 cycles / 5 per word, minus resync slack
		t.Fatalf("post-error throughput %d words/1000 cycles, want ~200", delivered)
	}
}

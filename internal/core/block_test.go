package core

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func blockPair(t *testing.T) (*BlockTx, *BlockRx, *sim.World) {
	t.Helper()
	p := DefaultParams()
	tx := NewTxConverter(p, FlowParams{})
	rx := NewRxConverter(p, FlowParams{}, 1<<16)
	tx.SetEnabled(true)
	rx.SetEnabled(true)
	rx.ConnectIn(&tx.Out)
	w := sim.NewWorld()
	w.Add(tx, rx)
	btx, brx := NewBlockTx(tx), NewBlockRx(rx)
	w.Add(&sim.Func{OnEval: func() {
		btx.Pump()
		brx.Pump()
	}})
	return btx, brx, w
}

func TestBlockRoundTrip(t *testing.T) {
	btx, brx, w := blockPair(t)
	block := []uint16{10, 20, 30, 40, 50}
	if err := btx.Start(block); err != nil {
		t.Fatal(err)
	}
	if !w.RunUntil(func() bool { return brx.BlocksReceived() == 1 }, 200) {
		t.Fatal("block never completed")
	}
	got, ok := brx.Pop()
	if !ok || len(got) != len(block) {
		t.Fatalf("block = %v", got)
	}
	for i := range block {
		if got[i] != block[i] {
			t.Fatalf("block[%d] = %d, want %d", i, got[i], block[i])
		}
	}
	if brx.FramingErrors() != 0 {
		t.Fatalf("framing errors: %d", brx.FramingErrors())
	}
	if btx.BlocksSent() != 1 {
		t.Fatalf("BlocksSent = %d", btx.BlocksSent())
	}
}

func TestBlockBackToBack(t *testing.T) {
	// OFDM symbols follow each other continuously; block boundaries must
	// survive back-to-back transmission.
	btx, brx, w := blockPair(t)
	blocks := [][]uint16{{1, 2}, {3, 4, 5}, {6}, {7, 8, 9, 10}}
	bi := 0
	w.Add(&sim.Func{OnEval: func() {
		if btx.Idle() && bi < len(blocks) {
			if err := btx.Start(blocks[bi]); err == nil {
				bi++
			}
		}
	}})
	if !w.RunUntil(func() bool { return int(brx.BlocksReceived()) == len(blocks) }, 500) {
		t.Fatalf("received %d/%d blocks", brx.BlocksReceived(), len(blocks))
	}
	for _, want := range blocks {
		got, ok := brx.Pop()
		if !ok || len(got) != len(want) {
			t.Fatalf("block %v, want %v", got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("block mismatch: %v vs %v", got, want)
			}
		}
	}
	if brx.FramingErrors() != 0 {
		t.Fatalf("framing errors: %d", brx.FramingErrors())
	}
}

func TestBlockStartErrors(t *testing.T) {
	btx, _, _ := blockPair(t)
	if err := btx.Start(nil); err == nil {
		t.Error("empty block accepted")
	}
	if err := btx.Start([]uint16{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := btx.Start([]uint16{4}); err == nil {
		t.Error("overlapping block accepted")
	}
}

func TestBlockSizesProperty(t *testing.T) {
	// Any sequence of block sizes round-trips with exact boundaries.
	f := func(sizes []uint8) bool {
		if len(sizes) == 0 || len(sizes) > 6 {
			return true
		}
		btx, brx, w := blockPair(t)
		var blocks [][]uint16
		val := uint16(1)
		for _, s := range sizes {
			n := int(s)%9 + 1
			blk := make([]uint16, n)
			for i := range blk {
				blk[i] = val
				val++
			}
			blocks = append(blocks, blk)
		}
		bi := 0
		w.Add(&sim.Func{OnEval: func() {
			if btx.Idle() && bi < len(blocks) {
				if btx.Start(blocks[bi]) == nil {
					bi++
				}
			}
		}})
		total := 0
		for _, b := range blocks {
			total += len(b)
		}
		if !w.RunUntil(func() bool { return int(brx.BlocksReceived()) == len(blocks) },
			total*8+100) {
			return false
		}
		for _, want := range blocks {
			got, ok := brx.Pop()
			if !ok || len(got) != len(want) {
				return false
			}
			for i := range want {
				if got[i] != want[i] {
					return false
				}
			}
		}
		return brx.FramingErrors() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestBlockNilConverterPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"tx": func() { NewBlockTx(nil) },
		"rx": func() { NewBlockRx(nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

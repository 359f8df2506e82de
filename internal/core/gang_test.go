package core

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

// gangHarness couples k transmit converters to k receive converters
// directly (zero-router gang circuit).
type gangHarness struct {
	tx *GangTx
	rx *GangRx
	w  *sim.World
}

func newGang(t *testing.T, k int) *gangHarness {
	t.Helper()
	p := DefaultParams()
	var txs []*TxConverter
	var rxs []*RxConverter
	w := sim.NewWorld()
	for i := 0; i < k; i++ {
		tx := NewTxConverter(p, FlowParams{})
		rx := NewRxConverter(p, FlowParams{}, 64)
		tx.SetEnabled(true)
		rx.SetEnabled(true)
		rx.ConnectIn(&tx.Out)
		w.Add(tx, rx)
		txs = append(txs, tx)
		rxs = append(rxs, rx)
	}
	return &gangHarness{tx: NewGangTx(txs), rx: NewGangRx(rxs), w: w}
}

func TestGangPreservesOrder(t *testing.T) {
	h := newGang(t, 3)
	const total = 60
	sent := 0
	h.w.Add(&sim.Func{OnEval: func() {
		for sent < total && h.tx.Ready() {
			if !h.tx.Push(DataWord(uint16(sent * 7))) {
				break
			}
			sent++
		}
	}})
	var got []Word
	h.w.Add(&sim.Func{OnEval: func() {
		for {
			w, ok := h.rx.Pop()
			if !ok {
				break
			}
			got = append(got, w)
		}
	}})
	if !h.w.RunUntil(func() bool { return len(got) == total }, 1000) {
		t.Fatalf("reassembled %d/%d words", len(got), total)
	}
	for i, w := range got {
		if w.Data != uint16(i*7) {
			t.Fatalf("word %d = %v: striping broke order", i, w)
		}
	}
	if h.tx.Sent() != total || h.rx.Received() != total || h.rx.Dropped() != 0 {
		t.Fatalf("counters: sent=%d recv=%d dropped=%d",
			h.tx.Sent(), h.rx.Received(), h.rx.Dropped())
	}
}

func TestGangMultipliesThroughput(t *testing.T) {
	// k lanes deliver k words per packet period: a 4-lane gang carries
	// 4x80 = 320 Mbit/s at 25 MHz, the UMTS aggregate of Section 3.2.
	rate := func(k int) float64 {
		h := newGang(t, k)
		sent, recv := 0, 0
		h.w.Add(&sim.Func{OnEval: func() {
			for h.tx.Ready() {
				if !h.tx.Push(DataWord(uint16(sent))) {
					break
				}
				sent++
			}
			for {
				if _, ok := h.rx.Pop(); !ok {
					break
				}
				recv++
			}
		}})
		const cycles = 1000
		h.w.Run(cycles)
		return float64(recv) / cycles
	}
	r1, r4 := rate(1), rate(4)
	if r1 < 0.19 || r1 > 0.21 {
		t.Fatalf("single lane rate %.3f words/cycle, want ~0.2", r1)
	}
	if r4 < 0.76 || r4 > 0.81 {
		t.Fatalf("4-lane gang rate %.3f words/cycle, want ~0.8", r4)
	}
}

func TestGangWidthOneDegeneratesToSingleLane(t *testing.T) {
	h := newGang(t, 1)
	if h.tx.Width() != 1 || h.rx.Width() != 1 {
		t.Fatal("width wrong")
	}
	h.tx.Push(DataWord(5))
	h.w.Run(10)
	if w, ok := h.rx.Pop(); !ok || w.Data != 5 {
		t.Fatalf("single-lane gang broken: %v %v", w, ok)
	}
}

func TestGangStrictOrderNeverSkips(t *testing.T) {
	// If the next lane in stripe order is busy, Push must refuse rather
	// than reorder onto a free lane.
	p := DefaultParams()
	lane0 := NewTxConverter(p, FlowParams{})
	lane1 := NewTxConverter(p, FlowParams{})
	lane0.SetEnabled(true)
	lane1.SetEnabled(true)
	g := NewGangTx([]*TxConverter{lane0, lane1})
	// Occupy lane 0 directly, leaving lane 1 free.
	if !lane0.Push(DataWord(0xAA)) {
		t.Fatal("direct push refused")
	}
	if g.Push(DataWord(1)) {
		t.Fatal("gang skipped ahead onto the free lane")
	}
	if g.Sent() != 0 {
		t.Fatal("gang counted a refused word")
	}
	if !lane1.Ready() {
		t.Fatal("gang disturbed the free lane")
	}
}

func TestGangRandomizedProperty(t *testing.T) {
	// For any gang width and word count, reassembly is exact and in order.
	f := func(kRaw, nRaw uint8) bool {
		k := int(kRaw)%4 + 1
		n := int(nRaw)%80 + 1
		h := newGang(t, k)
		sent := 0
		h.w.Add(&sim.Func{OnEval: func() {
			for sent < n && h.tx.Ready() {
				if !h.tx.Push(DataWord(uint16(sent))) {
					break
				}
				sent++
			}
		}})
		var got []Word
		h.w.Add(&sim.Func{OnEval: func() {
			for {
				w, ok := h.rx.Pop()
				if !ok {
					break
				}
				got = append(got, w)
			}
		}})
		if !h.w.RunUntil(func() bool { return len(got) == n }, n*10+100) {
			return false
		}
		for i, w := range got {
			if w.Data != uint16(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestGangForValidation(t *testing.T) {
	p := DefaultParams()
	a := NewAssembly(p, DefaultAssemblyOptions())
	b := NewAssembly(p, DefaultAssemblyOptions())
	if _, _, err := GangFor(a, b, []int{0, 1}, []int{0}); err == nil {
		t.Error("mismatched lane lists accepted")
	}
	if _, _, err := GangFor(a, b, nil, nil); err == nil {
		t.Error("empty gang accepted")
	}
	if _, _, err := GangFor(a, b, []int{9}, []int{0}); err == nil {
		t.Error("out-of-range tx lane accepted")
	}
	if _, _, err := GangFor(a, b, []int{0}, []int{9}); err == nil {
		t.Error("out-of-range rx lane accepted")
	}
	tx, rx, err := GangFor(a, b, []int{0, 1}, []int{2, 3})
	if err != nil || tx.Width() != 2 || rx.Width() != 2 {
		t.Fatalf("valid gang rejected: %v", err)
	}
}

func TestNewGangPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"tx": func() { NewGangTx(nil) },
		"rx": func() { NewGangRx(nil) },
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

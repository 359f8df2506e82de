package core

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

// txRxHarness couples a transmit converter directly to a receive converter
// (a zero-router circuit) for unit-testing the serialization protocol.
type txRxHarness struct {
	tx *TxConverter
	rx *RxConverter
	w  *sim.World
}

func newTxRx(t *testing.T, flow FlowParams, bufCap int) *txRxHarness {
	t.Helper()
	p := DefaultParams()
	h := &txRxHarness{
		tx: NewTxConverter(p, flow),
		rx: NewRxConverter(p, flow, bufCap),
		w:  sim.NewWorld(),
	}
	h.tx.SetEnabled(true)
	h.rx.SetEnabled(true)
	h.rx.ConnectIn(&h.tx.Out)
	h.tx.ConnectAck(&h.rx.AckOut)
	h.w.Add(h.tx, h.rx)
	return h
}

// TestFig6Constants pins the converters' constants to the Fig. 6 format
// they stand for, at the paper's geometry and at another port and lane
// count, which mustFig6Format leaves free.
func TestFig6Constants(t *testing.T) {
	for _, p := range []Params{DefaultParams(), {Ports: 3, LanesPerPort: 12, LaneWidth: 4, TileWidth: 16}} {
		mustFig6Format(p)
		if p.PacketNibbles() != fig6Nibbles || 1<<uint(p.LaneWidth)-1 != fig6LaneMask ||
			TxRegBits(p) != fig6TxRegBits || RxRegBits(p) != fig6RxRegBits {
			t.Errorf("%+v: nibbles %d, lane mask %#x, registers %d/%d; the constants say %d, %#x, %d/%d",
				p, p.PacketNibbles(), 1<<uint(p.LaneWidth)-1, TxRegBits(p), RxRegBits(p),
				fig6Nibbles, fig6LaneMask, fig6TxRegBits, fig6RxRegBits)
		}
	}
}

func TestSerializeDeserializeOneWord(t *testing.T) {
	h := newTxRx(t, FlowParams{}, 8)
	want := Word{Hdr: HdrValid | HdrSOB, Data: 0xCAFE}
	if !h.tx.Push(want) {
		t.Fatal("push rejected")
	}
	if !h.w.RunUntil(func() bool { return h.rx.Available() > 0 }, 20) {
		t.Fatal("word never arrived")
	}
	var got Word
	h.w.Add(&sim.Func{OnEval: func() {
		if h.rx.Available() > 0 {
			got, _ = h.rx.Pop()
		}
	}})
	h.w.Step()
	if got != want {
		t.Fatalf("received %v, want %v", got, want)
	}
	if h.tx.Sent() != 1 || h.rx.Received() != 1 {
		t.Fatalf("counters: sent=%d received=%d", h.tx.Sent(), h.rx.Received())
	}
}

func TestBackToBackThroughput(t *testing.T) {
	// A lane sustains one word per PacketNibbles() = 5 cycles — this is
	// exactly the paper's 80 Mbit/s per stream at 25 MHz (16 data bits
	// every 5 cycles).
	h := newTxRx(t, FlowParams{}, 1<<16)
	const words = 100
	sent := 0
	h.w.Add(&sim.Func{OnEval: func() {
		if sent < words && h.tx.Ready() {
			h.tx.Push(DataWord(uint16(sent)))
			sent++
		}
	}})
	cycles := 0
	for h.rx.Received() < words {
		h.w.Step()
		cycles++
		if cycles > words*6+20 {
			t.Fatalf("too slow: %d words in %d cycles", h.rx.Received(), cycles)
		}
	}
	// Steady state must be 5 cycles/word (plus small pipeline fill).
	if cycles > words*5+15 {
		t.Fatalf("sustained rate too low: %d cycles for %d words", cycles, words)
	}
}

func TestDeserializerIgnoresIdleAndSyncs(t *testing.T) {
	p := DefaultParams()
	rx := NewRxConverter(p, FlowParams{}, 8)
	rx.SetEnabled(true)
	lane := uint8(0)
	rx.ConnectIn(&lane)
	w := sim.NewWorld()
	w.Add(rx)
	// A long idle period...
	w.Run(50)
	if rx.Received() != 0 {
		t.Fatal("idle lane produced words")
	}
	// ...then a packet, nibble by nibble.
	want := Word{Hdr: HdrValid | HdrEOB, Data: 0x1234}
	for _, nib := range want.Nibbles() {
		lane = nib
		w.Step()
	}
	lane = 0
	w.Run(2)
	if rx.Received() != 1 {
		t.Fatalf("received = %d, want 1", rx.Received())
	}
	got, ok := rx.Peek()
	if !ok || got != want {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestDeserializerDataNibblesWithValidBitDoNotConfuse(t *testing.T) {
	// Data nibbles may coincidentally carry bit 0; the deserializer must
	// count nibbles rather than re-synchronize mid-packet.
	h := newTxRx(t, FlowParams{}, 16)
	words := []Word{DataWord(0xFFFF), DataWord(0x1111), DataWord(0xF0F)}
	i := 0
	h.w.Add(&sim.Func{OnEval: func() {
		if i < len(words) && h.tx.Ready() {
			h.tx.Push(words[i])
			i++
		}
	}})
	if !h.w.RunUntil(func() bool { return int(h.rx.Received()) == len(words) }, 200) {
		t.Fatalf("only %d words arrived", h.rx.Received())
	}
	for _, want := range words {
		got, ok := h.rx.Pop()
		if !ok || got != want {
			t.Fatalf("got %v, want %v", got, want)
		}
		h.w.Step()
	}
}

func TestRoundTripPropertyRandomWords(t *testing.T) {
	// Any sequence of words survives serialization in order.
	f := func(data []uint16, hdrs []uint8) bool {
		if len(data) == 0 {
			return true
		}
		if len(data) > 32 {
			data = data[:32]
		}
		h := newTxRx(t, FlowParams{}, len(data))
		words := make([]Word, len(data))
		for i, d := range data {
			hd := Header(0)
			if i < len(hdrs) {
				hd = Header(hdrs[i] & 0xE) // random SOB/EOB/CTL flags
			}
			words[i] = Word{Hdr: HdrValid | hd, Data: d}
		}
		i := 0
		h.w.Add(&sim.Func{OnEval: func() {
			if i < len(words) && h.tx.Ready() {
				h.tx.Push(words[i])
				i++
			}
		}})
		if !h.w.RunUntil(func() bool { return int(h.rx.Received()) == len(words) },
			len(words)*10+50) {
			return false
		}
		for _, want := range words {
			got, ok := h.rx.Pop()
			if !ok || got != want {
				return false
			}
			h.w.Step()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestWindowCounterBlocksAtZero(t *testing.T) {
	flow := FlowParams{UseAck: true, WC: 2, X: 1}
	h := newTxRx(t, flow, 2)
	pushed := 0
	h.w.Add(&sim.Func{OnEval: func() {
		if h.tx.Ready() {
			if h.tx.Push(DataWord(uint16(pushed))) {
				pushed++
			}
		}
	}})
	// Nobody consumes at the destination: the source must stop after WC
	// packets in flight.
	h.w.Run(200)
	if h.tx.Sent() != uint64(flow.WC) {
		t.Fatalf("sent %d packets with WC=%d and no consumption", h.tx.Sent(), flow.WC)
	}
	if h.rx.Dropped() != 0 {
		t.Fatalf("window failed: %d drops", h.rx.Dropped())
	}
	if h.tx.Stalled() == 0 {
		t.Fatal("source never registered a stall")
	}
}

func TestWindowCounterReplenishedByAck(t *testing.T) {
	flow := FlowParams{UseAck: true, WC: 2, X: 1}
	h := newTxRx(t, flow, 2)
	pushed, consumed := 0, 0
	const total = 20
	h.w.Add(&sim.Func{OnEval: func() {
		if pushed < total && h.tx.Ready() {
			if h.tx.Push(DataWord(uint16(pushed))) {
				pushed++
			}
		}
		if _, ok := h.rx.Pop(); ok {
			consumed++
		}
	}})
	if !h.w.RunUntil(func() bool { return consumed == total }, 2000) {
		t.Fatalf("stalled: consumed %d/%d (sent %d, wc=%d)",
			consumed, total, h.tx.Sent(), h.tx.Window())
	}
	if h.rx.Dropped() != 0 {
		t.Fatalf("drops with consuming destination: %d", h.rx.Dropped())
	}
	if h.tx.WindowViolations() != 0 {
		t.Fatalf("window violations: %d", h.tx.WindowViolations())
	}
}

func TestWindowNeverOverflowsBufferProperty(t *testing.T) {
	// The paper's invariant: with WC ≤ destination buffer capacity and
	// X ≤ WC, no destination overflow occurs regardless of the consumer's
	// timing.
	f := func(wcRaw, xRaw, consumeEvery uint8, seed uint64) bool {
		wc := int(wcRaw)%8 + 1
		x := int(xRaw)%wc + 1
		period := int(consumeEvery)%17 + 1
		flow := FlowParams{UseAck: true, WC: wc, X: x}
		h := newTxRx(t, flow, wc) // buffer exactly the window size
		pushed, cycle := 0, 0
		h.w.Add(&sim.Func{OnEval: func() {
			if h.tx.Ready() {
				if h.tx.Push(DataWord(uint16(pushed))) {
					pushed++
				}
			}
			if cycle%period == 0 {
				h.rx.Pop()
			}
			cycle++
		}})
		h.w.Run(800)
		return h.rx.Dropped() == 0 && h.tx.WindowViolations() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestNonBlockingModeStreamsFreely(t *testing.T) {
	// Without the ack wire the source streams at full rate — the paper's
	// non-blocking mode where the destination is assumed to consume.
	h := newTxRx(t, FlowParams{}, 4)
	pushed := 0
	h.w.Add(&sim.Func{OnEval: func() {
		if h.tx.Ready() {
			if h.tx.Push(DataWord(uint16(pushed))) {
				pushed++
			}
		}
	}})
	h.w.Run(500)
	if h.tx.Sent() < 90 { // ~500/5 minus pipeline fill
		t.Fatalf("non-blocking source sent only %d words", h.tx.Sent())
	}
	// With nobody consuming a 4-word buffer, overflow is expected — that
	// is exactly the failure mode the window counter exists to prevent.
	if h.rx.Dropped() == 0 {
		t.Fatal("expected destination overflow without flow control")
	}
}

func TestDisabledConverterIsIdle(t *testing.T) {
	p := DefaultParams()
	tx := NewTxConverter(p, FlowParams{})
	if tx.Push(DataWord(1)) {
		t.Fatal("disabled converter accepted data")
	}
	w := sim.NewWorld()
	w.Add(tx)
	w.Run(10)
	if tx.Out != 0 || tx.Sent() != 0 {
		t.Fatal("disabled converter produced output")
	}
}

func TestFlowParamsValidate(t *testing.T) {
	bad := []FlowParams{
		{UseAck: true, WC: 0, X: 1},
		{UseAck: true, WC: 4, X: 0},
		{UseAck: true, WC: 4, X: 5}, // X > WC violates the paper's X ≤ WC
	}
	for i, f := range bad {
		if f.Validate() == nil {
			t.Errorf("case %d accepted %+v", i, f)
		}
	}
	if (FlowParams{}).Validate() != nil {
		t.Error("ack-less flow params must validate")
	}
	if DefaultFlow().Validate() != nil {
		t.Error("default flow params must validate")
	}
}

func TestConverterRejectsNonPaperFormat(t *testing.T) {
	p := Params{Ports: 5, LanesPerPort: 4, LaneWidth: 8, TileWidth: 16}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-Fig.6 format")
		}
	}()
	NewTxConverter(p, FlowParams{})
}

func TestRxBufCapPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero buffer")
		}
	}()
	NewRxConverter(DefaultParams(), FlowParams{}, 0)
}

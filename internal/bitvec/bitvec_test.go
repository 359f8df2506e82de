package bitvec

import (
	"math/bits"
	"testing"
	"testing/quick"
)

func TestVecBasic(t *testing.T) {
	v := New(100)
	if v.Len() != 100 {
		t.Fatalf("Len = %d, want 100", v.Len())
	}
	if v.OnesCount() != 0 {
		t.Fatalf("new vector not zero: %d ones", v.OnesCount())
	}
	v.SetBit(0, true)
	v.SetBit(63, true)
	v.SetBit(64, true)
	v.SetBit(99, true)
	for _, i := range []int{0, 63, 64, 99} {
		if v.Bit(i) != 1 {
			t.Errorf("bit %d = 0, want 1", i)
		}
	}
	if v.OnesCount() != 4 {
		t.Fatalf("OnesCount = %d, want 4", v.OnesCount())
	}
	v.SetBit(63, false)
	if v.Bit(63) != 0 {
		t.Error("clearing bit 63 failed")
	}
}

func TestVecFieldRoundTrip(t *testing.T) {
	v := New(100)
	// The router's configuration memory is exactly this shape: twenty 5-bit
	// fields.
	for lane := 0; lane < 20; lane++ {
		v.SetField(lane*5, 5, uint64(lane)&0x1F)
	}
	for lane := 0; lane < 20; lane++ {
		if got := v.Field(lane*5, 5); got != uint64(lane)&0x1F {
			t.Errorf("lane %d field = %d, want %d", lane, got, lane&0x1F)
		}
	}
}

func TestVecFieldCrossesWordBoundary(t *testing.T) {
	v := New(128)
	v.SetField(60, 10, 0x3A5)
	if got := v.Field(60, 10); got != 0x3A5 {
		t.Fatalf("cross-boundary field = %#x, want 0x3a5", got)
	}
}

func TestVecHamming(t *testing.T) {
	a, b := New(70), New(70)
	a.SetBit(0, true)
	a.SetBit(69, true)
	b.SetBit(69, true)
	b.SetBit(35, true)
	if d := a.Hamming(b); d != 2 {
		t.Fatalf("Hamming = %d, want 2", d)
	}
}

func TestVecCopyEqual(t *testing.T) {
	a, c := New(33), New(33)
	a.SetField(10, 8, 0xAB)
	c.SetField(10, 8, 0xAB)
	if !a.Equal(c) {
		t.Fatal("equal contents compare unequal")
	}
	c.SetBit(0, true)
	if a.Equal(c) {
		t.Fatal("differing contents compare equal")
	}
	if a.Equal(New(34)) {
		t.Fatal("differing widths compare equal")
	}
}

func TestVecString(t *testing.T) {
	v := New(5)
	v.SetBit(0, true)
	v.SetBit(4, true)
	if s := v.String(); s != "10001" {
		t.Fatalf("String = %q, want 10001", s)
	}
}

func TestVecPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"negative width": func() { New(-1) },
		"bit range":      func() { New(4).Bit(4) },
		"field range":    func() { New(8).Field(5, 4) },
		"field width":    func() { New(80).Field(0, 65) },
		"hamming width":  func() { New(4).Hamming(New(5)) },
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

func TestNibbleSplitJoin(t *testing.T) {
	// The 20-bit lane packet: header nibble then 4 data nibbles, MSB first.
	const pkt = uint32(0x9ABCD) // header 0x9, data 0xABCD
	nibs := SplitNibblesMSB(pkt, 5)
	want := []uint8{0x9, 0xA, 0xB, 0xC, 0xD}
	for i := range want {
		if nibs[i] != want[i] {
			t.Errorf("nibble %d = %#x, want %#x", i, nibs[i], want[i])
		}
	}
	if got := JoinNibblesMSB(nibs); got != pkt {
		t.Fatalf("JoinNibblesMSB = %#x, want %#x", got, pkt)
	}
}

func TestNibbleSplitJoinProperty(t *testing.T) {
	f := func(w uint32) bool {
		w &= 0xFFFFF // 20-bit packets
		return JoinNibblesMSB(SplitNibblesMSB(w, 5)) == w
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHammingHelpers(t *testing.T) {
	if Hamming16(0xFFFF, 0) != 16 {
		t.Error("Hamming16 full flip != 16")
	}
	if Hamming32(0xF0F0F0F0, 0x0F0F0F0F) != 32 {
		t.Error("Hamming32 full flip != 32")
	}
}

func TestXorShiftDeterminism(t *testing.T) {
	a, b := NewXorShift64(42), NewXorShift64(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewXorShift64(43)
	same := 0
	a = NewXorShift64(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds collide too often: %d/1000", same)
	}
}

func TestXorShiftZeroSeed(t *testing.T) {
	x := NewXorShift64(0)
	if x.Uint64() == 0 && x.Uint64() == 0 {
		t.Fatal("zero seed produced stuck-at-zero stream")
	}
}

func TestXorShiftFloatRange(t *testing.T) {
	x := NewXorShift64(7)
	for i := 0; i < 10000; i++ {
		f := x.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestXorShiftIntn(t *testing.T) {
	x := NewXorShift64(9)
	seen := make([]bool, 5)
	for i := 0; i < 1000; i++ {
		v := x.Intn(5)
		if v < 0 || v >= 5 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	for i, s := range seen {
		if !s {
			t.Errorf("Intn never produced %d", i)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	x.Intn(0)
}

func TestFlipGenExtremes(t *testing.T) {
	// p = 0: the paper's best case transmits only zeros.
	g := NewFlipGen(16, 0, 1)
	for i := 0; i < 100; i++ {
		if g.Next() != 0 {
			t.Fatal("p=0 generator produced non-zero word")
		}
	}
	// p = 1: worst case, every bit flips every word.
	g = NewFlipGen(16, 1, 1)
	prev := uint64(0)
	for i := 0; i < 100; i++ {
		w := g.Next()
		if bits.OnesCount64(w^prev) != 16 {
			t.Fatalf("p=1 word %d flipped %d bits, want 16", i, bits.OnesCount64(w^prev))
		}
		prev = w
	}
}

func TestFlipGenTypicalRate(t *testing.T) {
	g := NewFlipGen(16, 0.5, 123)
	prev, flips, n := uint64(0), 0, 20000
	for i := 0; i < n; i++ {
		w := g.Next()
		flips += bits.OnesCount64(w ^ prev)
		prev = w
	}
	rate := float64(flips) / float64(n*16)
	if rate < 0.48 || rate > 0.52 {
		t.Fatalf("measured flip rate %.4f, want ~0.5", rate)
	}
}

func TestFlipGenRateProperty(t *testing.T) {
	// For any p, the long-run flip fraction approaches p.
	f := func(seed uint64, pRaw uint8) bool {
		p := float64(pRaw%101) / 100
		g := NewFlipGen(16, p, seed)
		prev, flips, n := uint64(0), 0, 5000
		for i := 0; i < n; i++ {
			w := g.Next()
			flips += bits.OnesCount64(w ^ prev)
			prev = w
		}
		rate := float64(flips) / float64(n*16)
		return rate > p-0.05 && rate < p+0.05
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestFlipGenPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"width 0":  func() { NewFlipGen(0, 0.5, 1) },
		"width 65": func() { NewFlipGen(65, 0.5, 1) },
		"p < 0":    func() { NewFlipGen(8, -0.1, 1) },
		"p > 1":    func() { NewFlipGen(8, 1.1, 1) },
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

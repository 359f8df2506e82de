package bitvec

import (
	"math/bits"
	"testing"
	"testing/quick"
)

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

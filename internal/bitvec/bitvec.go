// Package bitvec provides small bit-manipulation utilities used throughout
// the NoC models: arbitrary-width bit vectors (for configuration memories),
// nibble packing/unpacking (for the 20-bit lane packets of the
// circuit-switched router), Hamming-distance toggle counting (for the
// activity-based power estimation) and deterministic data generators with a
// controlled bit-flip rate (the traffic knob of the paper's Section 6).
package bitvec

import (
	"fmt"
	"math/bits"
	"strings"
)

// Vec is an arbitrary-width bit vector. The zero value is an empty vector;
// use New to create one with a fixed width. Bit 0 is the least significant
// bit of word 0.
type Vec struct {
	words []uint64
	n     int
}

// New returns a zeroed bit vector of n bits. It panics if n is negative.
func New(n int) *Vec {
	if n < 0 {
		panic("bitvec: negative width")
	}
	return &Vec{words: make([]uint64, (n+63)/64), n: n}
}

// Len returns the width of the vector in bits.
func (v *Vec) Len() int { return v.n }

// Bit returns bit i (0 or 1). It panics if i is out of range.
func (v *Vec) Bit(i int) uint {
	v.check(i)
	return uint(v.words[i/64]>>(uint(i)%64)) & 1
}

// SetBit sets bit i to b (true = 1).
func (v *Vec) SetBit(i int, b bool) {
	v.check(i)
	if b {
		v.words[i/64] |= 1 << (uint(i) % 64)
	} else {
		v.words[i/64] &^= 1 << (uint(i) % 64)
	}
}

// Field returns the w-bit field starting at bit lo as a uint64.
// It panics if w > 64 or the field is out of range.
func (v *Vec) Field(lo, w int) uint64 {
	if w < 0 || w > 64 {
		panic("bitvec: field width out of range")
	}
	if lo < 0 || lo+w > v.n {
		panic(fmt.Sprintf("bitvec: field [%d,%d) out of range 0..%d", lo, lo+w, v.n))
	}
	var out uint64
	for i := 0; i < w; i++ {
		out |= uint64(v.Bit(lo+i)) << uint(i)
	}
	return out
}

// SetField stores the low w bits of val into the field starting at bit lo.
func (v *Vec) SetField(lo, w int, val uint64) {
	if w < 0 || w > 64 {
		panic("bitvec: field width out of range")
	}
	if lo < 0 || lo+w > v.n {
		panic(fmt.Sprintf("bitvec: field [%d,%d) out of range 0..%d", lo, lo+w, v.n))
	}
	for i := 0; i < w; i++ {
		v.SetBit(lo+i, val>>uint(i)&1 == 1)
	}
}

// OnesCount returns the number of set bits.
func (v *Vec) OnesCount() int {
	c := 0
	for _, w := range v.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Hamming returns the number of differing bits between v and o.
// It panics if the widths differ.
func (v *Vec) Hamming(o *Vec) int {
	if v.n != o.n {
		panic("bitvec: width mismatch in Hamming")
	}
	c := 0
	for i := range v.words {
		c += bits.OnesCount64(v.words[i] ^ o.words[i])
	}
	return c
}

// Equal reports whether v and o have the same width and contents.
func (v *Vec) Equal(o *Vec) bool {
	if v.n != o.n {
		return false
	}
	for i := range v.words {
		if v.words[i] != o.words[i] {
			return false
		}
	}
	return true
}

// String renders the vector MSB-first as a binary string, for debugging.
func (v *Vec) String() string {
	var b strings.Builder
	for i := v.n - 1; i >= 0; i-- {
		if v.Bit(i) == 1 {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	return b.String()
}

func (v *Vec) check(i int) {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("bitvec: bit %d out of range 0..%d", i, v.n-1))
	}
}

// Hamming16 returns the number of differing bits between two 16-bit words.
func Hamming16(a, b uint16) int { return bits.OnesCount16(a ^ b) }

// Hamming32 returns the number of differing bits between two 32-bit words.
func Hamming32(a, b uint32) int { return bits.OnesCount32(a ^ b) }

// Nibble extracts 4-bit nibble i (0 = least significant) from w.
func Nibble(w uint32, i int) uint8 {
	return uint8(w >> (uint(i) * 4) & 0xF)
}

// SplitNibblesMSB splits the low n*4 bits of w into n nibbles, most
// significant nibble first. The circuit-switched lane transmits packets MSB
// nibble first (header, then D15-D12, …, D3-D0).
func SplitNibblesMSB(w uint32, n int) []uint8 {
	out := make([]uint8, n)
	for i := 0; i < n; i++ {
		out[i] = Nibble(w, n-1-i)
	}
	return out
}

// JoinNibblesMSB is the inverse of SplitNibblesMSB: it joins nibbles given
// most significant first into a single word.
func JoinNibblesMSB(nibs []uint8) uint32 {
	var w uint32
	for _, nb := range nibs {
		w = w<<4 | uint32(nb&0xF)
	}
	return w
}

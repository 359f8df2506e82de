// Package bitvec provides small bit-manipulation utilities used throughout
// the NoC models: nibble packing/unpacking (for the 20-bit lane packets of
// the circuit-switched router), Hamming-distance toggle counting (for the
// activity-based power estimation) and deterministic data generators with a
// controlled bit-flip rate (the traffic knob of the paper's Section 6).
package bitvec

import "math/bits"

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

package main

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
)

// calibrate is the reference twin every measured child is timed
// against: a fixed single-threaded mix of map, allocation, sort and
// hashing work that shares no code with the simulator, so a change to
// the simulator cannot move it while a change in the host's speed does.
func calibrate(p *pass) ([]byte, error) {
	type node struct {
		next *node
		v    uint64
	}
	iters := p.sz.calibrationIters
	x := uint64(0x9E3779B97F4A7C15)
	m := map[uint64]uint64{}
	var head *node
	for i := 0; i < iters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		m[x%uint64(iters*3/4)] += x
		if i%4 == 0 {
			head = &node{next: head, v: x}
		}
	}
	s := make([]uint64, 0, len(m))
	for k, v := range m {
		s = append(s, k^v)
	}
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	for n := head; n != nil; n = n.next {
		s = append(s, n.v)
	}
	buf := make([]byte, 0, 8*len(s))
	for _, v := range s {
		buf = binary.LittleEndian.AppendUint64(buf, v)
	}
	sum := sha256.Sum256(buf)
	return sum[:], nil
}

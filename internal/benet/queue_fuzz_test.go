package benet

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/mesh"
	"repro/internal/packetsw"
	"repro/internal/sim"
)

// FuzzBENetQueue drives a Network and a refNetwork (the flit-slice
// queues it replaced, kept in ref_test.go) through the same generated
// traffic under each kernel, and requires the same deliveries (source,
// destination, payload and both time stamps, in order) and the same
// Pending count on every cycle.
//
// The input's first two bytes pick a mesh of 2×2 to 5×5. Each further
// byte is one cycle: with its top bit set, an idle stretch of 1–8
// cycles; otherwise a burst of its low three bits' count of sends, two
// operand bytes each. The first picks the source; the second the
// destination, never the source, and 1–6 payload words. Every message's
// words are distinct. Up to 400 cycles without sends follow the input,
// until both networks have drained; bytes past maxQueueInput are not
// read.
func FuzzBENetQueue(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, k := range []sim.Kernel{sim.KernelNaive, sim.KernelActive} {
			checkQueue(t, data, k)
		}
	})
}

// TestBENetQueueMatchesReference runs FuzzBENetQueue's check on random
// inputs of every mesh size, bursty enough that queues back up.
func TestBENetQueueMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	delivered := 0
	for i := 0; i < 40; i++ {
		data := make([]byte, 2+rng.Intn(300))
		rng.Read(data)
		for _, k := range []sim.Kernel{sim.KernelNaive, sim.KernelActive} {
			delivered += checkQueue(t, data, k)
		}
	}
	if delivered < 1000 {
		t.Fatalf("traffic too thin to test the queues: %d deliveries", delivered)
	}
}

// queueBytes reads a fuzz input byte by byte; past its end it reads 0.
type queueBytes struct {
	b []byte
	i int
}

func (r *queueBytes) next() byte {
	if r.i >= len(r.b) {
		return 0
	}
	r.i++
	return r.b[r.i-1]
}

func (r *queueBytes) left() int { return len(r.b) - r.i }

// maxQueueInput bounds the bytes a fuzz input is read for: the mutator
// grows inputs towards a megabyte, and every byte is a cycle or more.
const maxQueueInput = 2048

// checkQueue runs one input under kernel k and returns the deliveries.
func checkQueue(t *testing.T, data []byte, k sim.Kernel) int {
	t.Helper()
	rd := &queueBytes{b: data[:min(len(data), maxQueueInput)]}
	w, h := 2+int(rd.next())%4, 2+int(rd.next())%4
	nodes := w * h
	p := packetsw.DefaultParams()
	net, ref := New(w, h, p, sim.WithKernel(k)), newRefNetwork(w, h, p, sim.WithKernel(k))

	delivered, tag := 0, uint16(0)
	step := func(cycle int) {
		net.Step()
		ref.Step()
		got, want := net.Delivered(), ref.Delivered()
		if len(got) != len(want) {
			t.Fatalf("%v cycle %d: delivered %d messages, reference %d", k, cycle, len(got), len(want))
		}
		for i, m := range got {
			r := want[i]
			if m.Src != r.Src || m.Dst != r.Dst || !slices.Equal(m.Payload, r.Payload) ||
				m.SentCycle != r.SentCycle || m.RecvCycle != r.RecvCycle {
				t.Fatalf("%v cycle %d: delivery %d %+v, reference %+v", k, cycle, i, m, r)
			}
		}
		delivered += len(got)
		if got, want := net.Pending(), ref.Pending(); got != want {
			t.Fatalf("%v cycle %d: Pending() = %d, reference %d", k, cycle, got, want)
		}
	}

	cycle := 0
	for rd.left() > 0 {
		op := rd.next()
		if op&0x80 != 0 {
			for i := 1 + int(op>>4&7); i > 0; i-- {
				step(cycle)
				cycle++
			}
			continue
		}
		for s := int(op & 7); s > 0; s-- {
			src, b := int(rd.next())%nodes, int(rd.next())
			dst := (src + 1 + b%(nodes-1)) % nodes
			payload := make([]uint16, 1+b/(nodes-1)%6)
			for i := range payload {
				payload[i] = tag<<3 | uint16(i)
			}
			tag++
			msg := Message{Src: mesh.Coord{X: src % w, Y: src / w}, Dst: mesh.Coord{X: dst % w, Y: dst / w},
				Payload: payload}
			net.Send(msg)
			ref.Send(msg)
		}
		step(cycle)
		cycle++
	}
	for i := 0; i < 400 && net.Pending() > 0; i++ {
		step(cycle)
		cycle++
	}
	return delivered
}

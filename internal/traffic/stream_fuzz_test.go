package traffic

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/aethereal"
	"repro/internal/core"
	"repro/internal/packetsw"
	"repro/internal/stdcell"
)

// FuzzStreamKernels runs a generated stream set through RunCircuit,
// RunPacket and RunTDM under both kernels: each runner must return the
// same Result, or the same error text, under the naive and the
// production kernel, and nothing may panic. decodeStreamCase reads the
// input. The seeds are stream sets the packet runner once got wrong
// when it gave each stream its own flit generator and driver: a
// neighbour-fed stream listed before a tile-injected one (the
// production kernel panicked on {1: East→Tile, 2: Tile→West} and
// disagreed with the naive kernel on {1: South→North, 2: Tile→West} at
// depth 2), and two streams entering one neighbour port (one of them
// was lost).
func FuzzStreamKernels(f *testing.F) {
	f.Add([]byte{1, 0, 12, 15, 3, 3, 7, 28, 255, 128, 0, 5, 20})
	f.Add([]byte{1, 0, 13, 15, 3, 2, 1, 28, 160, 213, 5, 5, 20})
	f.Add([]byte{1, 0, 16, 1, 3, 3, 7, 28, 255, 128, 0, 5, 20})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkStreamKernels(t, data)
	})
}

// TestStreamKernelsAgree runs FuzzStreamKernels' check on random inputs
// and requires that every runner completes some of them without error.
func TestStreamKernelsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var ran [3]int
	for i := 0; i < 200; i++ {
		data := make([]byte, 13)
		rng.Read(data)
		for r, ok := range checkStreamKernels(t, data) {
			if ok {
				ran[r]++
			}
		}
	}
	if ran[0] == 0 || ran[1] == 0 || ran[2] == 0 {
		t.Fatalf("runs completed by RunCircuit, RunPacket, RunTDM: %v; want some of each", ran)
	}
}

// checkStreamKernels runs the decoded case through the three stream
// runners under both kernels, fails when a runner's two outcomes
// differ, and reports which runners completed without error.
func checkStreamKernels(t *testing.T, data []byte) (ran [3]bool) {
	c := decodeStreamCase(data)
	runners := []struct {
		name string
		run  func(RunConfig) (Result, error)
	}{
		{"RunCircuit", func(cfg RunConfig) (Result, error) { return RunCircuit(c.sc, c.pat, cfg) }},
		{"RunPacket", func(cfg RunConfig) (Result, error) { return RunPacket(c.sc, c.pat, cfg) }},
		{"RunTDM", func(cfg RunConfig) (Result, error) { return RunTDM(c.ap, c.sc, c.pat, cfg) }},
	}
	for ri, r := range runners {
		var out [2]string
		for i, k := range allKernels {
			cfg := c.cfg
			cfg.Kernel = k
			res, err := r.run(cfg)
			if err != nil {
				out[i] = "error: " + err.Error()
			} else {
				out[i] = fmt.Sprintf("%+v", res)
				ran[ri] = true
			}
		}
		if out[0] != out[1] {
			t.Errorf("%s on %v (%+v, lanes %d, %+v, slots %d, %d cycles, budget %d): kernels disagree\n%v: %s\n%v: %s",
				r.name, c.sc.Streams, c.pat, c.cfg.Params.LanesPerPort, *c.cfg.PSParams, c.ap.Slots,
				c.cfg.Cycles, c.cfg.WordsPerStream, allKernels[0], out[0], allKernels[1], out[1])
		}
	}
	return ran
}

// streamCase is one decoded FuzzStreamKernels input.
type streamCase struct {
	sc  Scenario
	pat Pattern
	cfg RunConfig
	ap  aethereal.Params
}

// decodeStreamCase reads a fuzz input byte by byte, reading 0 past its
// end: the stream count 1–4, a permutation of the stream IDs 1–4 (the
// streams take its first IDs), each stream's ports (In ≠ Out, any port
// order), then lanes 1–4, VCs 1–4, FIFO depth 1–8, TDM slots 4–32, the
// load and flip probability in steps of 1/255, a word budget of 0–60
// and, from two bytes, a run of 200–1,500 cycles.
func decodeStreamCase(data []byte) streamCase {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	n := 1 + next()%4
	ids := []int{1, 2, 3, 4}
	perm := next()
	for i := 0; i < 3; i++ {
		j := i + perm%(4-i)
		perm /= 4 - i
		ids[i], ids[j] = ids[j], ids[i]
	}
	var c streamCase
	c.sc.Name = "fuzz"
	for k := 0; k < n; k++ {
		b := next()
		in := b % 5
		out := (in + 1 + b/5%4) % 5
		c.sc.Streams = append(c.sc.Streams, Stream{ID: ids[k], In: core.Port(in), Out: core.Port(out)})
	}
	cp := core.DefaultParams()
	cp.LanesPerPort = 1 + next()%4
	pp := packetsw.DefaultParams()
	pp.VCs = 1 + next()%4
	pp.Depth = 1 + next()%8
	c.ap = aethereal.DefaultParams()
	c.ap.Slots = 4 + next()%29
	c.pat = Pattern{Load: float64(next()) / 255, FlipProb: float64(next()) / 255}
	budget := uint64(next() % 61)
	cycles := 200 + (next()<<8|next())%1301
	c.cfg = RunConfig{Cycles: cycles, FreqMHz: 25, Lib: stdcell.Default013(),
		Params: &cp, PSParams: &pp, WordsPerStream: budget}
	return c
}

package packetsw

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/power"
	"repro/internal/stdcell"
)

// refAllocation is one cycle's switch allocation as referenceGrants
// computes it.
type refAllocation struct {
	grants    []int // granted input VC of each granting output, in output order
	rrPtr     []int
	lastGrant []int
	nextOut   []Flit
}

// referenceGrants runs the switch allocator as first written on the
// router's state just before its Eval, leaving the router untouched:
// every output scans all input VCs round-robin from the one after its
// last grant, recomputing each head's route and skipping the VCs already
// popped this cycle.
func referenceGrants(r *Router) refAllocation {
	p := r.P
	a := refAllocation{
		rrPtr:     slices.Clone(r.rrPtr),
		lastGrant: slices.Clone(r.lastGrant),
		nextOut:   make([]Flit, p.Ports),
	}
	n := p.InputVCs()
	popped := make([]bool, n)
	for out := 0; out < p.Ports; out++ {
		granted := -1
		for i := 1; i <= n; i++ {
			idx := (a.rrPtr[out] + i) % n
			port, vc := idx/p.VCs, idx%p.VCs
			if port == out || popped[idx] {
				continue
			}
			dst, ok := r.headRoute(port, vc)
			if !ok || int(dst) != out {
				continue
			}
			owner := r.outOwner[out][vc]
			if r.fifo(port, vc).front().Kind.Opens() {
				if owner != -1 && owner != idx {
					continue
				}
			} else if owner != idx {
				continue
			}
			if core.Port(out) != core.Tile && r.creditIn[out] != nil &&
				r.credits[out][vc] <= 0 {
				continue
			}
			granted = idx
			break
		}
		if granted < 0 {
			continue
		}
		popped[granted] = true
		a.nextOut[out] = *r.fifo(granted/p.VCs, granted%p.VCs).front()
		a.grants = append(a.grants, granted)
		a.rrPtr[out] = granted
		a.lastGrant[out] = granted
	}
	return a
}

// chooser supplies driveAllocation's random decisions.
type chooser interface {
	// intn returns a choice in [0, n).
	intn(n int) int
	// more reports whether decisions remain.
	more() bool
}

type randChooser struct{ *rand.Rand }

func (c randChooser) intn(n int) int { return c.Intn(n) }
func (randChooser) more() bool       { return true }

// byteChooser reads decisions from fuzz input, one byte each.
type byteChooser struct{ b []byte }

func (c *byteChooser) intn(n int) int {
	if len(c.b) == 0 {
		return 0
	}
	v := int(c.b[0]) % n
	c.b = c.b[1:]
	return v
}

func (c *byteChooser) more() bool { return len(c.b) > 0 }

// allocStats counts what a driven run exercised.
type allocStats struct{ grants, uturns, outside int }

// driveAllocation runs a router with p's shape for up to cycles cycles
// (fewer if ch runs out) and compares every cycle's switch allocation
// with referenceGrants. Head flits route through a 16-entry table drawn
// from ch that mixes valid ports with U-turns (a route equal to the
// flit's input port) and routes outside [0, Ports). Every port is fed
// through its input register with single- and multi-flit packets on
// random VCs, never past a FIFO's depth; some outputs get a credit word
// with random pulses per VC, the others none.
func driveAllocation(p Params, ch chooser, cycles int) (allocStats, error) {
	var st allocStats
	var routes [16]core.Port
	for i := range routes {
		if ch.intn(8) == 0 {
			routes[i] = core.Port(ch.intn(9) - 1) // -1..7: PortRoute's reach and below
		} else {
			routes[i] = core.Port(ch.intn(p.Ports))
		}
	}
	r := NewRouter(p, func(d uint16) core.Port { return routes[d&15] })
	in := make([]Flit, p.Ports)
	pulse := make([]uint64, p.Ports)
	wired := make([]bool, p.Ports)
	for port := range in {
		r.ConnectIn(core.Port(port), &in[port])
		if wired[port] = ch.intn(2) == 0; wired[port] {
			r.ConnectCreditIn(core.Port(port), &pulse[port])
		}
	}
	left := make([]int, p.InputVCs()) // flits still to send of each VC's open packet
	for cycle := 0; cycle < cycles && ch.more(); cycle++ {
		for port := range in {
			in[port] = Flit{}
			if ch.intn(2) == 0 {
				continue
			}
			vc := ch.intn(p.VCs)
			if r.InputBacklog(core.Port(port), vc) >= p.Depth {
				continue
			}
			f := Flit{VC: vc, Data: uint16(ch.intn(256))}
			switch idx := port*p.VCs + vc; {
			case left[idx] > 1:
				f.Kind = Body
				left[idx]--
			case left[idx] == 1:
				f.Kind = Tail
				left[idx] = 0
			default:
				f.Kind = HeadTail
				if n := ch.intn(4); n > 0 {
					f.Kind = Head
					left[idx] = n
				}
			}
			in[port] = f
		}
		for o := range pulse {
			pulse[o] = 0
			for v := 0; v < p.VCs; v++ {
				if wired[o] && ch.intn(3) == 0 {
					pulse[o] |= 1 << v
				}
			}
		}
		for idx := range r.fifos {
			port := idx / p.VCs
			if q := r.fifo(port, idx%p.VCs); q.n > 0 && q.front().Kind.Opens() {
				switch dst := int(r.Route(q.front().Data)); {
				case dst == port:
					st.uturns++
				case dst < 0 || dst >= p.Ports:
					st.outside++
				}
			}
		}

		want := referenceGrants(r)
		r.Eval()
		if err := sameAllocation(r, want); err != nil {
			return st, fmt.Errorf("%+v cycle %d: %v", p, cycle, err)
		}
		st.grants += len(want.grants)
		r.Commit()
	}
	return st, nil
}

// sameAllocation compares the allocation r's Eval just made with want.
func sameAllocation(r *Router, want refAllocation) error {
	got := make([]int, len(r.pops))
	for i, op := range r.pops {
		got[i] = op.port*r.P.VCs + op.vc
	}
	switch {
	case !slices.Equal(got, want.grants):
		return fmt.Errorf("grants %v, reference %v", got, want.grants)
	case !slices.Equal(r.rrPtr, want.rrPtr):
		return fmt.Errorf("rrPtr %v, reference %v", r.rrPtr, want.rrPtr)
	case !slices.Equal(r.lastGrant, want.lastGrant):
		return fmt.Errorf("lastGrant %v, reference %v", r.lastGrant, want.lastGrant)
	case !slices.Equal(r.nextOut, want.nextOut):
		return fmt.Errorf("nextOut %v, reference %v", r.nextOut, want.nextOut)
	}
	return nil
}

// TestSwitchAllocationMatchesReference drives routers of every shape from
// 2 to 6 ports, 1 to 4 VCs and depths 1, 2 and 8 with random traffic and
// checks each cycle's grants, round-robin pointers and output flits
// against the reference allocator.
func TestSwitchAllocationMatchesReference(t *testing.T) {
	var total allocStats
	for ports := 2; ports <= 6; ports++ {
		for vcs := 1; vcs <= 4; vcs++ {
			for _, depth := range []int{1, 2, 8} {
				for seed := int64(1); seed <= 10; seed++ {
					p := Params{Ports: ports, VCs: vcs, Depth: depth, PhitBits: 16}
					st, err := driveAllocation(p, randChooser{rand.New(rand.NewSource(seed))}, 100)
					if err != nil {
						t.Fatalf("seed %d: %v", seed, err)
					}
					total.grants += st.grants
					total.uturns += st.uturns
					total.outside += st.outside
				}
			}
		}
	}
	if total.grants == 0 || total.uturns == 0 || total.outside == 0 {
		t.Fatalf("traffic too thin to test the allocator: %+v", total)
	}
}

// FuzzSwitchAllocation is TestSwitchAllocationMatchesReference's check
// over fuzzed router shapes, route tables, credit wiring and traffic.
func FuzzSwitchAllocation(f *testing.F) {
	f.Add([]byte("\x03\x03\x02 allocation seed: five ports, four VCs, depth eight"))
	f.Add([]byte{0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Fuzz(func(t *testing.T, data []byte) {
		ch := &byteChooser{b: data}
		p := Params{
			Ports:    2 + ch.intn(5),
			VCs:      1 + ch.intn(4),
			Depth:    []int{1, 2, 8}[ch.intn(3)],
			PhitBits: 16,
		}
		if _, err := driveAllocation(p, ch, 1000); err != nil {
			t.Fatal(err)
		}
	})
}

// TestRouterStreamingAllocatesNothing pins BenchmarkRouterStepMetered's
// shape, a metered router receiving one HeadTail flit per cycle on North
// and routing it East, to zero allocations per cycle.
func TestRouterStreamingAllocatesNothing(t *testing.T) {
	p := DefaultParams()
	lib := stdcell.Default013()
	r := NewRouter(p, PortRoute)
	r.BindMeter(power.NewMeter(Netlist(p, lib), lib, 25))
	var north Flit
	r.ConnectIn(core.North, &north)
	// AllocsPerRun truncates its average, so each run steps a batch of
	// cycles: one allocation every few cycles still reads as at least 1.
	const batch = 16
	cycles := func() {
		for i := 0; i < batch; i++ {
			north = Flit{Kind: HeadTail, VC: 0, Data: HeadData(core.East)}
			r.Eval()
			r.Commit()
		}
	}
	cycles()
	if got := testing.AllocsPerRun(50, cycles); got != 0 {
		t.Fatalf("streaming %d cycles allocates %v times, want 0", batch, got)
	}
	if !r.Out[core.East].Valid() {
		t.Fatal("no flit crossed the router")
	}
}

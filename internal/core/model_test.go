package core

import (
	"fmt"
	"math/bits"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/power"
	"repro/internal/stdcell"
)

// TestRouterMatchesReferenceModel drives the cycle-accurate router with
// random configurations and random lane data and checks every output lane
// against an independent one-line reference model: a configured output
// lane equals its selected input delayed by exactly one clock edge; a
// disabled lane is zero. This is the crossbar's entire functional
// contract, verified exhaustively under fuzz.
func TestRouterMatchesReferenceModel(t *testing.T) {
	p := DefaultParams()
	rng := bitvec.NewXorShift64(20240613)

	for trial := 0; trial < 20; trial++ {
		r := NewRouter(p)
		// Random input drivers for every lane.
		inputs := make([]uint8, p.TotalLanes())
		for g := range inputs {
			r.ConnectIn(g, &inputs[g])
		}
		// Random configuration: each output lane enabled with p=0.7,
		// selecting a random foreign lane.
		type laneCfg struct {
			enabled bool
			in      int // global input lane
		}
		cfg := make([]laneCfg, p.TotalLanes())
		for g := range cfg {
			if !rng.Bool(0.7) {
				continue
			}
			outPort := p.LaneOf(g).Port
			rel := rng.Intn(p.ForeignLanes())
			cfg[g] = laneCfg{enabled: true, in: p.InputLane(outPort, rel)}
			r.PushConfig(ConfigCmd{Out: g, Sel: LaneSel{Enable: true, In: rel}})
		}
		r.Eval()
		r.Commit() // configuration edge

		prev := make([]uint8, p.TotalLanes())
		for cycle := 0; cycle < 50; cycle++ {
			for g := range inputs {
				prev[g] = inputs[g]
				inputs[g] = uint8(rng.Intn(16))
			}
			// The router samples pre-edge values: capture them before
			// stepping. (inputs were just overwritten; the router reads
			// the new values during Eval, so expected = current inputs.)
			expect := make([]uint8, p.TotalLanes())
			for g, c := range cfg {
				if c.enabled {
					expect[g] = inputs[c.in] & 0xF
				}
			}
			r.Eval()
			r.Commit()
			for g := range cfg {
				if r.Out[g] != expect[g] {
					t.Fatalf("trial %d cycle %d lane %d: out %#x, reference %#x",
						trial, cycle, g, r.Out[g], expect[g])
				}
			}
		}
	}
}

// TestRouterReconfigurationMidStream verifies that switching an output
// lane to a different input takes effect exactly one edge after the
// configuration write and never glitches other lanes — the run-time
// adaptation the CCN performs "due to changes in the reception quality".
func TestRouterReconfigurationMidStream(t *testing.T) {
	p := DefaultParams()
	r := NewRouter(p)
	srcA, srcB := uint8(0xA), uint8(0x5)
	inA := LaneID{Port: West, Lane: 0}
	inB := LaneID{Port: North, Lane: 2}
	out := LaneID{Port: East, Lane: 1}
	other := LaneID{Port: South, Lane: 3}
	r.ConnectIn(p.Global(inA), &srcA)
	r.ConnectIn(p.Global(inB), &srcB)
	if err := r.Configure(Circuit{In: inA, Out: out}); err != nil {
		t.Fatal(err)
	}
	if err := r.Configure(Circuit{In: inA, Out: other}); err != nil {
		t.Fatal(err)
	}
	step(r)
	step(r)
	if r.Out[p.Global(out)] != 0xA {
		t.Fatal("initial circuit broken")
	}
	// Re-point `out` to source B; `other` keeps A.
	if err := r.Configure(Circuit{In: inB, Out: out}); err != nil {
		t.Fatal(err)
	}
	step(r) // write commits; data path still old this edge
	step(r) // first edge with new select
	if r.Out[p.Global(out)] != 0x5 {
		t.Fatalf("reconfigured lane = %#x, want 0x5", r.Out[p.Global(out)])
	}
	if r.Out[p.Global(other)] != 0xA {
		t.Fatalf("unrelated lane glitched: %#x", r.Out[p.Global(other)])
	}
}

// refLane is the reference model's copy of one output lane's
// configuration memory entry.
type refLane struct {
	enable bool
	rel    int
}

// refInput resolves a lane's select the way the hardware description
// states it, through Params.InputLane and LaneOf on every call.
func refInput(p Params, g int, l refLane) (int, bool) {
	if !l.enable {
		return 0, false
	}
	return p.InputLane(p.LaneOf(g).Port, l.rel), true
}

// refField is a lane's ConfigBitsPerLane-bit memory image: the select
// plus the activation bit above it, stale select included.
func refField(p Params, l refLane) uint64 {
	f := uint64(l.rel)
	if l.enable {
		f |= 1 << uint(p.SelBits())
	}
	return f
}

// selField is refField of a LaneSel read back from a Config.
func selField(p Params, s LaneSel) uint64 {
	return refField(p, refLane{enable: s.Enable, rel: s.In})
}

// TestRouterGeometriesMatchReferenceModel drives routers of 3 and 5 ports
// with 1, 2, 4, 8 and 12 lanes per port (at 12 the tile port spans two
// of Commit's 8-lane words) through random traffic, random
// acknowledgements and random configuration writes — enables, disables
// that leave a non-zero select in the memory, and Deactivate — and
// checks every cycle against a reference that decodes each select
// through Params.InputLane and LaneOf: outputs, acknowledgements,
// InputFor, Quiescent, the gated clock energy and the metered register,
// link and gate toggle counts. Config.Copy snapshots must keep both the
// resolved inputs and the memory image of the moment they were taken.
func TestRouterGeometriesMatchReferenceModel(t *testing.T) {
	lib := stdcell.Default013()
	for _, ports := range []int{3, 5} {
		for _, lanes := range []int{1, 2, 4, 8, 12} {
			p := Params{Ports: ports, LanesPerPort: lanes, LaneWidth: 4, TileWidth: 16}
			t.Run(fmt.Sprintf("%dx%d", ports, lanes), func(t *testing.T) {
				checkRouterAgainstReference(t, p, lib, uint64(ports*100+lanes))
			})
		}
	}
}

func checkRouterAgainstReference(t *testing.T, p Params, lib stdcell.Lib, seed uint64) {
	rng := bitvec.NewXorShift64(seed)
	n := p.TotalLanes()
	mask := uint8(1<<uint(p.LaneWidth) - 1)
	r := NewRouter(p)
	m := power.NewMeter(Netlist(p, lib), lib, 25)
	r.BindMeter(m)

	// Every seventh lane stays unconnected and reads as idle.
	inputs := make([]uint8, n)
	acks := make([]bool, n)
	connected := func(g int) bool { return g%7 != 3 }
	for g := 0; g < n; g++ {
		if connected(g) {
			r.ConnectIn(g, &inputs[g])
			r.ConnectAckIn(g, &acks[g])
		}
	}

	cfg := make([]refLane, n)
	out := make([]uint8, n)
	ackOut := make([]bool, n)
	var wantReg, wantLink, wantGate uint64
	var snap *Config
	var snapCfg []refLane

	for cycle := 0; cycle < 300; cycle++ {
		// Traffic is sparse on some cycles so Quiescent sees both answers.
		busy := rng.Bool(0.6)
		for g := range inputs {
			inputs[g], acks[g] = 0, false
			if busy {
				inputs[g] = uint8(rng.Intn(256))
				acks[g] = rng.Bool(0.3)
			}
		}
		var staged []ConfigCmd
		if rng.Bool(0.3) {
			for k := 1 + rng.Intn(3); k > 0; k-- {
				g := rng.Intn(n)
				var cmd ConfigCmd
				switch rng.Intn(3) {
				case 0:
					cmd = ConfigCmd{Out: g, Sel: LaneSel{Enable: true, In: rng.Intn(p.ForeignLanes())}}
					r.PushConfig(cmd)
				case 1: // disabled, with a select left in the memory image
					cmd = ConfigCmd{Out: g, Sel: LaneSel{In: rng.Intn(p.ForeignLanes())}}
					r.PushConfig(cmd)
				default:
					cmd = ConfigCmd{Out: g}
					r.Deactivate(p.LaneOf(g))
				}
				staged = append(staged, cmd)
			}
		}

		// Reference next state from the configuration before the edge.
		read := func(g int) uint8 {
			if !connected(g) {
				return 0
			}
			return inputs[g] & mask
		}
		wantQuiet := len(staged) == 0
		nextOut := make([]uint8, n)
		nextAck := make([]bool, n)
		for g := 0; g < n; g++ {
			wantQuiet = wantQuiet && out[g] == 0 && !ackOut[g]
			in, ok := refInput(p, g, cfg[g])
			if !ok {
				continue
			}
			nextOut[g] = read(in)
			ackIn := connected(g) && acks[g]
			if ackIn {
				nextAck[in] = true
			}
			wantQuiet = wantQuiet && nextOut[g] == 0 && !ackIn
		}
		if got := r.Quiescent(); got != wantQuiet {
			t.Fatalf("cycle %d: Quiescent = %v, reference %v", cycle, got, wantQuiet)
		}
		for g := 0; g < n; g++ {
			d := bitvec.Hamming16(uint16(out[g]), uint16(nextOut[g]))
			wantReg += uint64(d)
			if p.LaneOf(g).Port == Tile {
				wantGate += uint64(d)
			} else {
				wantLink += uint64(d)
			}
			wantGate += uint64(2 * d)
			if ackOut[g] != nextAck[g] {
				wantReg++
				wantLink++
			}
		}
		// Staged writes land at the edge, in order; the memory image is
		// priced once, before against after.
		before := append([]refLane(nil), cfg...)
		for _, cmd := range staged {
			cfg[cmd.Out] = refLane{enable: cmd.Sel.Enable, rel: cmd.Sel.In}
		}
		for g := range cfg {
			wantReg += uint64(bits.OnesCount64(refField(p, before[g]) ^ refField(p, cfg[g])))
		}
		out, ackOut = nextOut, nextAck

		r.Eval()
		r.Commit()

		for g := 0; g < n; g++ {
			if r.Out[g] != out[g] || r.AckOut[g] != ackOut[g] {
				t.Fatalf("cycle %d lane %d: out %#x ack %v, reference %#x %v",
					cycle, g, r.Out[g], r.AckOut[g], out[g], ackOut[g])
			}
		}
		got := [3]uint64{m.Toggles(power.ToggleReg), m.Toggles(power.ToggleLink), m.Toggles(power.ToggleGate)}
		if want := [3]uint64{wantReg, wantLink, wantGate}; got != want {
			t.Fatalf("cycle %d: reg/link/gate toggles %v, reference %v", cycle, got, want)
		}
		active := p.ConfigBits()
		for g := 0; g < n; g++ {
			gotIn, gotOK := r.Config().InputFor(g)
			wantIn, wantOK := refInput(p, g, cfg[g])
			if gotIn != wantIn || gotOK != wantOK {
				t.Fatalf("cycle %d lane %d: InputFor = %d,%v, reference %d,%v",
					cycle, g, gotIn, gotOK, wantIn, wantOK)
			}
			if wantOK {
				active += p.LaneWidth + 1
			}
		}
		if got, want := r.ClockFJ(lib, true), power.ClockEnergyFor(lib, active, 0); got != want {
			t.Fatalf("cycle %d: gated clock energy %v, reference %v", cycle, got, want)
		}

		// A snapshot keeps the configuration it copied, resolved inputs
		// and memory image alike, however the live memory moves on.
		if snap != nil {
			got, diff := 0, 0
			for g := 0; g < n; g++ {
				gotIn, gotOK := snap.InputFor(g)
				wantIn, wantOK := refInput(p, g, snapCfg[g])
				if gotIn != wantIn || gotOK != wantOK {
					t.Fatalf("cycle %d lane %d: snapshot InputFor = %d,%v, reference %d,%v",
						cycle, g, gotIn, gotOK, wantIn, wantOK)
				}
				got += bits.OnesCount64(selField(p, snap.Lane(g)) ^ selField(p, r.Config().Lane(g)))
				diff += bits.OnesCount64(refField(p, snapCfg[g]) ^ refField(p, cfg[g]))
			}
			if got != diff {
				t.Fatalf("cycle %d: snapshot image differs from live in %d bits, reference %d",
					cycle, got, diff)
			}
		}
		if cycle%25 == 0 {
			snap = r.Config().Copy()
			snapCfg = append([]refLane(nil), cfg...)
		}
	}
}

package core

import (
	"testing"

	"repro/internal/power"
	"repro/internal/stdcell"
)

// BenchmarkRouterStep measures the raw Eval/Commit rate of one router with
// all 20 lanes configured and toggling.
func BenchmarkRouterStep(b *testing.B) {
	p := DefaultParams()
	r := NewRouter(p)
	inputs := make([]uint8, p.TotalLanes())
	for g := 0; g < p.TotalLanes(); g++ {
		r.ConnectIn(g, &inputs[g])
		out := p.LaneOf(g)
		inPort := North
		if out.Port == North {
			inPort = South
		}
		if err := r.Configure(Circuit{
			In:  LaneID{Port: inPort, Lane: out.Lane},
			Out: out,
		}); err != nil {
			b.Fatal(err)
		}
	}
	r.Eval()
	r.Commit()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for g := range inputs {
			inputs[g] = uint8(i+g) & 0xF
		}
		r.Eval()
		r.Commit()
	}
}

// BenchmarkRouterStepMetered adds the power accounting overhead.
func BenchmarkRouterStepMetered(b *testing.B) {
	p := DefaultParams()
	lib := stdcell.Default013()
	r := NewRouter(p)
	m := power.NewMeter(Netlist(p, lib), lib, 25)
	r.BindMeter(m)
	inputs := make([]uint8, p.TotalLanes())
	for g := 0; g < p.TotalLanes(); g++ {
		r.ConnectIn(g, &inputs[g])
	}
	if err := r.Configure(Circuit{
		In:  LaneID{Port: West, Lane: 0},
		Out: LaneID{Port: East, Lane: 0},
	}); err != nil {
		b.Fatal(err)
	}
	r.Eval()
	r.Commit()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inputs[p.Global(LaneID{Port: West, Lane: 0})] = uint8(i) & 0xF
		r.Eval()
		r.Commit()
		m.Tick()
	}
}

// BenchmarkSerialize measures packing a word into lane nibbles.
func BenchmarkSerialize(b *testing.B) {
	w := DataWord(0xA5C3)
	var sink uint32
	for i := 0; i < b.N; i++ {
		sink += w.Pack()
	}
	_ = sink
}

// BenchmarkConfigEncode measures the 10-bit command encode/decode pair.
func BenchmarkConfigEncode(b *testing.B) {
	p := DefaultParams()
	cmd := ConfigCmd{Out: 13, Sel: LaneSel{Enable: true, In: 9}}
	for i := 0; i < b.N; i++ {
		enc, err := cmd.Encode(p)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := DecodeConfigCmd(p, enc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAssemblyStep measures a full assembly (router + 8 converters).
func BenchmarkAssemblyStep(b *testing.B) {
	a := NewAssembly(DefaultParams(), DefaultAssemblyOptions())
	if err := a.EstablishLocal(Circuit{
		In:  LaneID{Port: Tile, Lane: 0},
		Out: LaneID{Port: East, Lane: 0},
	}); err != nil {
		b.Fatal(err)
	}
	n := uint16(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if a.Tx[0].Ready() {
			a.Tx[0].Push(DataWord(n))
			n++
		}
		a.Eval()
		a.Commit()
	}
}

// BenchmarkAssemblyPassThrough measures a mid-path router of a sparse
// mesh under the kernel's poll-then-step protocol: one configured
// West→East lane carrying a word every 20 cycles, every converter
// disabled, a meter bound. Each iteration is one cycle: Quiescent, then
// Eval+Commit or the skipped cycle's IdleWindow.
func BenchmarkAssemblyPassThrough(b *testing.B) {
	p := DefaultParams()
	lib := stdcell.Default013()
	a := NewAssembly(p, DefaultAssemblyOptions())
	a.BindMeter(power.NewMeter(Netlist(p, lib), lib, 25), &lib, false)
	var in uint8
	a.R.ConnectIn(p.Global(LaneID{Port: West, Lane: 0}), &in)
	if err := a.R.Configure(Circuit{
		In:  LaneID{Port: West, Lane: 0},
		Out: LaneID{Port: East, Lane: 0},
	}); err != nil {
		b.Fatal(err)
	}
	a.Eval()
	a.Commit()
	// The word's five nibbles, header first, as a converter emits them.
	var nibbles [5]uint8
	packed := DataWord(0xA5C3).Pack()
	for k := range nibbles {
		nibbles[k] = uint8(packed >> (16 - 4*k) & 0xF)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in = 0
		if k := i % 20; k < len(nibbles) {
			in = nibbles[k]
		}
		if a.Quiescent() {
			a.IdleWindow(1)
			continue
		}
		a.Eval()
		a.Commit()
	}
}

package noc

import (
	"bytes"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
)

// SignalActivity is the transition count of one probed signal.
type SignalActivity struct {
	// Name identifies the probed wire.
	Name string `json:"name"`
	// Transitions counts value changes over the capture.
	Transitions int `json:"transitions"`
}

// Waveform is a captured lane-level timing diagram: the quicklook of a
// configuration command arriving at a circuit-switched router followed
// by one word serializing across the crossbar.
type Waveform struct {
	// ASCII is the rendered timing diagram (hex lane values, '.' =
	// unchanged).
	ASCII string `json:"ascii"`
	// VCD is the same capture as a Value Change Dump any waveform
	// viewer (e.g. GTKWave) can open.
	VCD []byte `json:"vcd"`
	// Cycles is the capture length.
	Cycles int `json:"cycles"`
	// Signals lists the probes ordered by activity — the same signal
	// changes the power meter charges energy for.
	Signals []SignalActivity `json:"signals"`
}

// CaptureWaveform runs the trace-recorder quicklook: cycle 2 a
// configuration command establishes the circuit Tile.0 → East.0, cycle 6
// a single-word block {V|SOB|EOB, 0xCAFE} is pushed, and the recorder
// probes the transmit converter's lane and the East output lane for 24
// cycles. The word packs to the 20-bit packet 0x7CAFE; the tx lane
// carries nibbles 7,C,A,F,E and the East output repeats them one clock
// edge later (registered crossbar outputs).
func CaptureWaveform() (*Waveform, error) {
	p := core.DefaultParams()
	a := core.NewAssembly(p, core.DefaultAssemblyOptions())

	rec := trace.NewRecorder(64)
	east0 := p.Global(core.LaneID{Port: core.East, Lane: 0})
	rec.Add(
		trace.U8("tx0.lane", p.LaneWidth, &a.Tx[0].Out),
		trace.U8("east0.lane", p.LaneWidth, &a.R.Out[east0]),
	)

	// The production kernel: cycles 0–1 are fully quiescent, so the
	// dormant assembly is skipped and parks; the configuration write at
	// cycle 2 wakes it, and the recorder (a plain component, never
	// skipped) still samples every cycle — the capture is identical to
	// the naive kernel's.
	w := sim.NewWorld()
	w.Add(a)

	var setupErr error
	pushed := false
	w.Add(&sim.Func{OnEval: func() {
		switch w.Cycle() {
		case 2:
			if err := a.EstablishLocal(core.Circuit{
				In:  core.LaneID{Port: core.Tile, Lane: 0},
				Out: core.LaneID{Port: core.East, Lane: 0},
			}); err != nil {
				setupErr = err
			}
		case 6:
			if !pushed {
				a.Tx[0].Push(core.Word{
					Hdr:  core.HdrValid | core.HdrSOB | core.HdrEOB,
					Data: 0xCAFE,
				})
				pushed = true
			}
		}
	}})
	w.Add(rec) // last: samples post-edge values
	const cycles = 24
	w.Run(cycles)
	if setupErr != nil {
		return nil, setupErr
	}

	var ascii bytes.Buffer
	if err := rec.RenderASCII(&ascii, 0, cycles); err != nil {
		return nil, err
	}
	var vcd bytes.Buffer
	if err := rec.WriteVCD(&vcd, "quicklook", "40ns"); err != nil { // 25 MHz
		return nil, err
	}

	out := &Waveform{
		ASCII:  ascii.String(),
		VCD:    vcd.Bytes(),
		Cycles: rec.Cycles(),
	}
	for _, name := range rec.MostActive() {
		n, err := rec.Changes(name)
		if err != nil {
			return nil, err
		}
		out.Signals = append(out.Signals, SignalActivity{Name: name, Transitions: n})
	}
	return out, nil
}

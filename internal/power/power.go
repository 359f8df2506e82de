// Package power implements the activity-based power estimator that stands in
// for the paper's Synopsys Power Compiler run. Like Power Compiler it splits
// consumption into three buckets (Section 7.2 of the paper):
//
//   - static power: leakage, proportional to area, drawn whether or not the
//     circuit is clocked;
//   - dynamic internal-cell power: energy dissipated inside cells — the clock
//     pins of every register each cycle (the paper's "relative high offset")
//     plus the internal energy of cells whose outputs toggle;
//   - dynamic switching power: the charging and discharging of net load
//     capacitance at cell outputs, ½·C·V² per transition.
//
// A Meter is attached to a netlist.Design and fed by the cycle-accurate
// router models: one Tick per clock cycle plus toggle counts per activity
// class. At the end of a simulation Report converts accumulated energy into
// the three power buckets at the simulated clock frequency.
package power

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/netlist"
	"repro/internal/stdcell"
)

// ToggleKind classifies a signal transition by the kind of net it occurs on,
// which determines its internal and switching energy cost.
type ToggleKind int

const (
	// ToggleReg is a register output transition: flip-flop internal energy
	// plus a short local net.
	ToggleReg ToggleKind = iota
	// ToggleGate is a combinational cell output transition on the datapath
	// (multiplexer stages, decoders, arbiter logic).
	ToggleGate
	// ToggleLink is a transition on an inter-router link wire — a long
	// top-metal net whose capacitance comes from the library's link length.
	ToggleLink
	// ToggleBufBit is a FIFO/register-file storage bit changing value on a
	// write.
	ToggleBufBit
	numToggleKinds
)

// String returns the toggle kind's name.
func (k ToggleKind) String() string {
	switch k {
	case ToggleReg:
		return "register"
	case ToggleGate:
		return "gate"
	case ToggleLink:
		return "link"
	case ToggleBufBit:
		return "buffer-bit"
	default:
		return fmt.Sprintf("ToggleKind(%d)", int(k))
	}
}

// Representative net load capacitances in fF for short on-router nets.
const (
	cRegOutFF  = 12.0 // register output: a few gate loads plus local wire
	cGateOutFF = 6.0  // internal datapath net
	cBufBitFF  = 4.0  // storage bit internal node
)

// toggleEnergy returns the (internal, switching) energy in fJ of one
// transition of the given kind.
func toggleEnergy(lib stdcell.Lib, k ToggleKind) (internal, switching float64) {
	switch k {
	case ToggleReg:
		return lib.EIntDFFToggle, lib.ESwitch(cRegOutFF)
	case ToggleGate:
		return lib.EIntGateToggle, lib.ESwitch(cGateOutFF)
	case ToggleLink:
		// The driver's internal energy plus the long wire's load.
		return lib.EIntGateToggle, lib.ESwitch(lib.CLink())
	case ToggleBufBit:
		return 0.6 * lib.EIntDFFToggle, lib.ESwitch(cBufBitFF)
	default:
		panic(fmt.Sprintf("power: unknown toggle kind %d", int(k)))
	}
}

// Breakdown is the result of a power estimation at a given clock frequency.
type Breakdown struct {
	// Name labels the measured design/scenario combination.
	Name string `json:"name"`
	// FreqMHz is the clock frequency the estimate applies to.
	FreqMHz float64 `json:"freq_mhz"`
	// Cycles is the number of simulated clock cycles.
	Cycles uint64 `json:"cycles"`
	// StaticUW is the leakage power in µW.
	StaticUW float64 `json:"static_uw"`
	// InternalUW is the dynamic internal-cell power in µW (clock network
	// plus in-cell toggle energy).
	InternalUW float64 `json:"internal_uw"`
	// SwitchingUW is the dynamic switching (net charging) power in µW.
	SwitchingUW float64 `json:"switching_uw"`
}

// DynamicUW returns internal plus switching power in µW.
func (b Breakdown) DynamicUW() float64 { return b.InternalUW + b.SwitchingUW }

// TotalUW returns total power in µW.
func (b Breakdown) TotalUW() float64 { return b.StaticUW + b.DynamicUW() }

// DynamicPerMHz returns the frequency-normalized dynamic power in µW/MHz,
// the unit of the paper's Figure 10. Numerically it equals the average
// dynamic energy per cycle in pJ.
func (b Breakdown) DynamicPerMHz() float64 {
	if b.FreqMHz == 0 {
		return 0
	}
	return b.DynamicUW() / b.FreqMHz
}

// clockRun is one run of consecutive cycles drawing the same per-cycle
// clock energy. The meter accumulates clock energy run-length encoded —
// per-cycle ticks extend the current run, and a whole idle window of n
// cycles is one O(1) extension — so a batched TickGatedN is bit-identical
// to n individual TickGated calls by construction, the property the event
// kernel's fast-forward relies on.
type clockRun struct {
	fj float64 // per-cycle clock energy of the run
	n  uint64  // cycles in the run
}

// Meter accumulates activity for one design over a simulation. Everything
// the design and library decide is resolved when the meter is built, so a
// meter holds no copy of either.
type Meter struct {
	freqMHz float64

	cycles      uint64
	clockRuns   []clockRun // run-length encoded clock-network energy
	internalFJ  float64    // accumulated non-clock internal energy
	switchingFJ float64    // accumulated net switching energy
	toggles     [numToggleKinds]uint64
	// energy[k] is toggleEnergy(lib, k), resolved once per meter.
	energy [numToggleKinds]toggleCost

	fullClockFJ float64 // per-cycle clock energy when ungated
	staticUW    float64 // the design's leakage power
}

// toggleCost is the (internal, switching) energy in fJ of one transition.
type toggleCost struct{ internal, switching float64 }

// NewMeter returns a meter for the design at the given clock frequency,
// which must be finite and positive.
func NewMeter(d *netlist.Design, lib stdcell.Lib, freqMHz float64) *Meter {
	return NewMeters(d, lib, freqMHz, 1)[0]
}

// NewMeters returns n meters for the design at the given clock
// frequency, which must be finite and positive. The design's clock,
// leakage and toggle costs are resolved once for all n. The meters come
// from one allocation, and each meter's first clock run from a second
// one, carved with cap == len: a meter that needs a second run moves
// its record out rather than into a neighbour's.
func NewMeters(d *netlist.Design, lib stdcell.Lib, freqMHz float64, n int) []*Meter {
	if !(freqMHz > 0) || math.IsInf(freqMHz, 1) {
		panic(fmt.Sprintf("power: frequency %v MHz must be finite and positive", freqMHz))
	}
	proto := Meter{
		freqMHz:     freqMHz,
		fullClockFJ: d.ClockEnergyPerCycle(lib),
		staticUW:    d.LeakageUW(lib),
	}
	for k := range proto.energy {
		in, sw := toggleEnergy(lib, ToggleKind(k))
		proto.energy[k] = toggleCost{internal: in, switching: sw}
	}
	ms := make([]Meter, n)
	runs := make([]clockRun, n)
	out := make([]*Meter, n)
	for i := range ms {
		ms[i] = proto
		ms[i].clockRuns = runs[i : i : i+1]
		out[i] = &ms[i]
	}
	return out
}

// Tick records one clock cycle with the full (ungated) clock network active.
func (m *Meter) Tick() { m.TickN(1) }

// TickN records n clock cycles with the full clock network active, in
// O(1); bit-identical to n Tick calls.
func (m *Meter) TickN(n uint64) { m.addClock(m.fullClockFJ, n) }

// TickGated records one clock cycle in which only clockFJ femtojoules of
// clock energy were drawn (clock gating: idle lanes' registers are not
// clocked). clockFJ must not exceed the ungated per-cycle energy.
func (m *Meter) TickGated(clockFJ float64) { m.TickGatedN(clockFJ, 1) }

// TickGatedN records n gated clock cycles drawing clockFJ each, in O(1);
// bit-identical to n TickGated calls.
func (m *Meter) TickGatedN(clockFJ float64, n uint64) {
	if clockFJ < 0 || clockFJ > m.fullClockFJ*(1+1e-9) {
		panic(fmt.Sprintf("power: gated clock energy %v outside [0,%v]", clockFJ, m.fullClockFJ))
	}
	m.addClock(clockFJ, n)
}

// addClock extends the run-length encoded clock-energy record.
func (m *Meter) addClock(fj float64, n uint64) {
	if n == 0 {
		return
	}
	m.cycles += n
	if last := len(m.clockRuns) - 1; last >= 0 && m.clockRuns[last].fj == fj {
		m.clockRuns[last].n += n
		return
	}
	m.clockRuns = append(m.clockRuns, clockRun{fj: fj, n: n})
}

// clockFJ returns the total accumulated clock-network energy. Each run
// contributes one multiplication, so the total is independent of whether
// its cycles were recorded one at a time or as a batch.
func (m *Meter) clockFJ() float64 {
	var e float64
	for _, r := range m.clockRuns {
		e += r.fj * float64(r.n)
	}
	return e
}

// AddToggles records n transitions of the given kind.
func (m *Meter) AddToggles(k ToggleKind, n int) {
	if n < 0 {
		panic("power: negative toggle count")
	}
	if n == 0 {
		return
	}
	e := m.energy[k]
	m.internalFJ += e.internal * float64(n)
	m.switchingFJ += e.switching * float64(n)
	m.toggles[k] += uint64(n)
}

// Cycles returns the number of recorded clock cycles.
func (m *Meter) Cycles() uint64 { return m.cycles }

// Toggles returns the recorded transition count of the given kind.
func (m *Meter) Toggles(k ToggleKind) uint64 { return m.toggles[k] }

// FullClockEnergyPerCycle returns the design's ungated per-cycle clock
// energy in fJ, the budget available to clock gating.
func (m *Meter) FullClockEnergyPerCycle() float64 { return m.fullClockFJ }

// SimTimeUS returns the simulated time in microseconds.
func (m *Meter) SimTimeUS() float64 {
	return float64(m.cycles) / m.freqMHz
}

// Report converts accumulated energy into the three power buckets. It
// panics if no cycles were recorded (power is undefined for zero time).
func (m *Meter) Report(name string) Breakdown {
	if m.cycles == 0 {
		panic("power: Report with zero simulated cycles")
	}
	t := m.SimTimeUS() // µs; fJ/µs = nW, so divide by 1e3 for µW
	return Breakdown{
		Name:        name,
		FreqMHz:     m.freqMHz,
		Cycles:      m.cycles,
		StaticUW:    m.staticUW,
		InternalUW:  (m.clockFJ() + m.internalFJ) / t / 1e3,
		SwitchingUW: m.switchingFJ / t / 1e3,
	}
}

// ClassUW returns the dynamic power in µW attributable to one toggle
// class — the "where does the energy go" attribution that complements the
// static/internal/switching split (e.g. link wires vs buffer writes).
func (m *Meter) ClassUW(k ToggleKind) float64 {
	if m.cycles == 0 {
		return 0
	}
	c := m.energy[k]
	e := (c.internal + c.switching) * float64(m.toggles[k])
	return e / m.SimTimeUS() / 1e3
}

// AttributionEntry is one class of the dynamic-power attribution.
type AttributionEntry struct {
	// Class names the activity class: "clock" or a ToggleKind name.
	Class string `json:"class"`
	// UW is the class's dynamic power in µW.
	UW float64 `json:"uw"`
}

// AttributionSorted returns the dynamic-power attribution as a slice in a
// deterministic order (sorted by class name), so JSON and CSV encoders
// that iterate it emit byte-identical output run to run. The values sum
// to DynamicUW of the corresponding Report.
func (m *Meter) AttributionSorted() []AttributionEntry {
	out := make([]AttributionEntry, 0, int(numToggleKinds)+1)
	var clock float64
	if m.cycles > 0 {
		clock = m.clockFJ() / m.SimTimeUS() / 1e3
	}
	out = append(out, AttributionEntry{Class: "clock", UW: clock})
	for k := ToggleKind(0); k < numToggleKinds; k++ {
		out = append(out, AttributionEntry{Class: k.String(), UW: m.ClassUW(k)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Class < out[j].Class })
	return out
}

// Reset clears accumulated activity, keeping the design's resolved clock,
// leakage and toggle energies.
func (m *Meter) Reset() {
	m.cycles = 0
	m.clockRuns = m.clockRuns[:0]
	m.internalFJ = 0
	m.switchingFJ = 0
	m.toggles = [numToggleKinds]uint64{}
}

// ClockEnergyFor returns the per-cycle clock energy in fJ of a sub-block
// with the given register census; the gated router models use it to compute
// the active clock energy from their configuration.
func ClockEnergyFor(lib stdcell.Lib, dffs, bufBits int) float64 {
	if dffs < 0 || bufBits < 0 {
		panic("power: negative register census")
	}
	return float64(dffs)*lib.EClkDFF + float64(bufBits)*lib.EClkBufBit
}

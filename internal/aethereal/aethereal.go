// Package aethereal models the third router of the paper's Table 4: a
// contention-free time-division-multiplexed (TDM) router in the style of
// Æthereal (Dielissen et al., "Concepts and implementation of the Philips
// network-on-chip", 2003) — 6 ports, 32-bit links, layouted at 0.175 mm²
// and 500 MHz in the same 0.13 µm technology.
//
// Guaranteed-throughput traffic is scheduled in a slot table: in time slot
// s, output port o forwards the word arriving on table[s][o]. Because the
// table is computed contention free at configuration time, no arbitration
// happens in the data path; unlike the paper's circuit-switched proposal,
// bandwidth is shared in time rather than in space, and determining the
// static slot tables "requires considerable effort" (Section 4).
//
// Only Table 4 needs this router (total area, maximum frequency, link
// bandwidth), but the functional model is complete enough to validate slot
// schedules and measure GT bandwidth allocation, which the setup-time
// comparison experiment uses. Best-effort buffering is modelled only
// structurally: BEDepth sizes the per-port BE FIFOs of the netlist (area,
// leakage, clock load), while the cycle model forwards GT words only and
// leaves unreserved slots empty.
package aethereal

import (
	"fmt"

	"repro/internal/netlist"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/stdcell"
)

// Params are the design parameters of the TDM router.
type Params struct {
	// Ports is the number of bidirectional ports (6 in Table 4).
	Ports int
	// WordBits is the link width (32 in Table 4).
	WordBits int
	// Slots is the slot-table length.
	Slots int
	// BEDepth is the per-port best-effort FIFO depth in words; it sizes
	// the netlist's BE buffering.
	BEDepth int
}

// DefaultParams returns the Table 4 configuration: 6 ports, 32-bit links,
// a 32-slot table and 16-word best-effort FIFOs.
func DefaultParams() Params {
	return Params{Ports: 6, WordBits: 32, Slots: 32, BEDepth: 16}
}

// Upper bounds on the table and buffer knobs, far above the Table 4
// router: a router allocates its slot table when it is built, and the
// netlist grows with both.
const (
	maxSlots   = 1024
	maxBEDepth = 1024
)

// Validate checks the parameters.
func (p Params) Validate() error {
	switch {
	case p.Ports < 2:
		return fmt.Errorf("aethereal: need at least 2 ports, have %d", p.Ports)
	case p.WordBits < 8 || p.WordBits > 64:
		return fmt.Errorf("aethereal: word width %d out of range", p.WordBits)
	case p.Slots < 1:
		return fmt.Errorf("aethereal: need at least 1 slot, have %d", p.Slots)
	case p.Slots > maxSlots:
		return fmt.Errorf("aethereal: Slots %d exceeds %d slots", p.Slots, maxSlots)
	case p.BEDepth < 1:
		return fmt.Errorf("aethereal: need BE depth >= 1, have %d", p.BEDepth)
	case p.BEDepth > maxBEDepth:
		return fmt.Errorf("aethereal: BEDepth %d exceeds %d words", p.BEDepth, maxBEDepth)
	}
	return nil
}

// NoInput marks an unreserved slot-table entry.
const NoInput = -1

// SlotTable maps, per time slot and output port, the input port to
// forward (or NoInput).
type SlotTable struct {
	p     Params
	slots [][]int // [slot][outPort] -> inPort or NoInput
}

// NewSlotTable returns an all-unreserved table.
func NewSlotTable(p Params) *SlotTable {
	t := &SlotTable{p: p, slots: make([][]int, p.Slots)}
	for s := range t.slots {
		row := make([]int, p.Ports)
		for o := range row {
			row[o] = NoInput
		}
		t.slots[s] = row
	}
	return t
}

// Reserve books input port in → output port out during slot s. It fails if
// the output is already reserved in that slot (the contention-free
// property) or the ports coincide.
func (t *SlotTable) Reserve(s, in, out int) error {
	if s < 0 || s >= t.p.Slots || in < 0 || in >= t.p.Ports || out < 0 || out >= t.p.Ports {
		return fmt.Errorf("aethereal: reservation (%d,%d,%d) out of range", s, in, out)
	}
	if in == out {
		return fmt.Errorf("aethereal: input and output port %d coincide", in)
	}
	if t.slots[s][out] != NoInput {
		return fmt.Errorf("aethereal: slot %d output %d already reserved", s, out)
	}
	t.slots[s][out] = in
	return nil
}

// ReserveSpread books up to n slots for input in → output out, spread
// over the table: booking k probes forward from slot k×(Slots/n),
// wrapping, past slots whose output is taken or whose input already
// feeds another output (the no-multicast invariant). It stops at the
// first booking no slot can take — the table only fills, so every later
// one would fail too — and returns the slots booked, in booking order.
// An error is Reserve refusing a free slot: a port out of range, or in
// and out coinciding.
func (t *SlotTable) ReserveSpread(in, out, n int) ([]int, error) {
	var booked []int
	if n < 1 {
		return booked, nil
	}
	stride := max(t.p.Slots/n, 1)
	for k := 0; k < n; k++ {
		placed := false
		for probe := 0; probe < t.p.Slots && !placed; probe++ {
			s := (k*stride + probe) % t.p.Slots
			if t.slots[s][out] != NoInput || t.InputBusy(s, in) {
				continue
			}
			if err := t.Reserve(s, in, out); err != nil {
				return booked, err
			}
			booked = append(booked, s)
			placed = true
		}
		if !placed {
			break
		}
	}
	return booked, nil
}

// Entry returns the input reserved for output out in slot s, or NoInput.
func (t *SlotTable) Entry(s, out int) int { return t.slots[s][out] }

// InputBusy reports whether the input already feeds some output in the
// slot — the no-multicast invariant of the functional model, which
// reservation builders must respect.
func (t *SlotTable) InputBusy(s, in int) bool {
	for _, booked := range t.slots[s] {
		if booked == in {
			return true
		}
	}
	return false
}

// ReservedSlots returns how many of the table's slots reserve the given
// output for the given input — the GT bandwidth share allocated to that
// connection (share = ReservedSlots/Slots of the link bandwidth).
func (t *SlotTable) ReservedSlots(in, out int) int {
	n := 0
	for s := range t.slots {
		if t.slots[s][out] == in {
			n++
		}
	}
	return n
}

// Validate checks the contention-free invariant: within one slot, an
// output has at most one input (guaranteed by construction) and an input
// feeds at most one output (no multicast in this model).
func (t *SlotTable) Validate() error {
	for s := range t.slots {
		seen := make(map[int]int)
		for o, in := range t.slots[s] {
			if in == NoInput {
				continue
			}
			if prev, dup := seen[in]; dup {
				return fmt.Errorf("aethereal: slot %d: input %d feeds outputs %d and %d",
					s, in, prev, o)
			}
			seen[in] = o
		}
	}
	return nil
}

// Router is the functional TDM router: a slot counter, the slot table and
// registered outputs. Unreserved output slots stay empty.
type Router struct {
	// P are the design parameters.
	P Params
	// Table is the GT slot table, written at configuration time.
	Table *SlotTable
	// Out holds the registered output words, one per port; OutValid marks
	// slots carrying data.
	Out      []uint32
	OutValid []bool

	in      []*uint32
	inValid []*bool
	slot    int

	meter *power.Meter

	nextOut   []uint32
	nextValid []bool
}

// NewRouter returns a TDM router with an empty slot table.
func NewRouter(p Params) *Router {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return &Router{
		P:         p,
		Table:     NewSlotTable(p),
		Out:       make([]uint32, p.Ports),
		OutValid:  make([]bool, p.Ports),
		in:        make([]*uint32, p.Ports),
		inValid:   make([]*bool, p.Ports),
		nextOut:   make([]uint32, p.Ports),
		nextValid: make([]bool, p.Ports),
	}
}

// ConnectIn wires input port i to an upstream data/valid register pair.
func (r *Router) ConnectIn(i int, data *uint32, valid *bool) {
	r.in[i] = data
	r.inValid[i] = valid
}

// BindMeter attaches a power meter whose clock network the router ticks
// itself: once per Commit, and in one run-length batch per IdleWindow. Folding the tick into the router (instead of an
// every-cycle monitor Func) is what lets TDM scenarios fast-forward —
// the meter's run-length encoded clock energy makes the batched window
// bit-identical to per-cycle ticks. The TDM router has no clock gating,
// so the full clock network is charged on idle cycles too.
func (r *Router) BindMeter(m *power.Meter) { r.meter = m }

// Slot returns the current slot-table position.
func (r *Router) Slot() int { return r.slot }

// Eval implements sim.Clocked: each output reserved in the current slot
// takes its input's word, if valid.
func (r *Router) Eval() {
	for o := 0; o < r.P.Ports; o++ {
		r.nextValid[o] = false
		r.nextOut[o] = 0
		in := r.Table.Entry(r.slot, o)
		if in != NoInput && r.in[in] != nil && r.inValid[in] != nil && *r.inValid[in] {
			r.nextOut[o] = *r.in[in]
			r.nextValid[o] = true
		}
	}
}

// Commit implements sim.Clocked.
func (r *Router) Commit() {
	copy(r.Out, r.nextOut)
	copy(r.OutValid, r.nextValid)
	r.slot = (r.slot + 1) % r.P.Slots
	if r.meter != nil {
		r.meter.Tick()
	}
}

// Quiescent implements sim.Quiescer: the TDM router is skippable when no
// input presents a valid word and every output register is idle — i.e.
// none of its reserved slots is occupied. The slot counter still advances
// on skipped cycles via IdleWindow, keeping the TDM frame phase
// cycle-accurate.
func (r *Router) Quiescent() bool {
	for o := 0; o < r.P.Ports; o++ {
		if r.OutValid[o] {
			return false
		}
		if r.in[o] != nil && r.inValid[o] != nil && *r.inValid[o] {
			return false
		}
	}
	return true
}

// IdleWindow implements sim.Quiescer: on an idle cycle the slot
// counter moves and the (ungated) clock network is charged. A window of n
// idle cycles advances the slot counter by n modulo the table length and
// charges n clock ticks in one O(1) run-length extension, keeping both the
// TDM frame phase and the accumulated clock energy bit-identical across a
// fast-forward.
func (r *Router) IdleWindow(n uint64) {
	r.slot = int((uint64(r.slot) + n) % uint64(r.P.Slots))
	if r.meter != nil {
		r.meter.TickN(n)
	}
}

var _ sim.Quiescer = (*Router)(nil)

// Netlist returns the structural netlist that reproduces the Table 4 row:
// slot table storage, the GT crossbar, best-effort buffering and the
// header-parsing/arbitration unit.
func Netlist(p Params, lib stdcell.Lib) *netlist.Design {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	d := &netlist.Design{Name: "Aethereal (slot-table TDM) router"}

	entryBits := 3 * p.Ports // ~3 bits of input select per output
	d.AddBlock(netlist.SlotTable("slot table", p.Slots, entryBits))

	xbar := netlist.Crossbar(lib, "crossbar", p.Ports, p.Ports, p.WordBits+2)
	d.AddBlock(xbar)

	buf := netlist.Component{Name: "BE buffering"}
	for i := 0; i < p.Ports; i++ {
		buf = buf.Add(netlist.ShiftFIFO("", p.WordBits+2, p.BEDepth))
	}
	buf.Name = "BE buffering"
	d.AddBlock(buf)

	arb := netlist.Component{Name: "BE arbitration"}
	for i := 0; i < p.Ports; i++ {
		arb = arb.Add(netlist.RoundRobinArbiter("", p.Ports))
	}
	arb.Name = "BE arbitration"
	d.AddBlock(arb)

	d.AddBlock(netlist.Component{Name: "header parsing", DFFs: 80, CombGE: 900})

	// ~500 MHz in 0.13 µm: slot-table read, crossbar traversal, BE
	// fallback mux and wiring.
	d.CriticalPathFO4 = 4.0 + netlist.MuxTreeDepthFO4(p.Ports) + 7.6 + 12.0

	return d
}

// LinkBandwidthGbps returns the raw link bandwidth (Table 4: 32 bit ×
// 500 MHz = 16 Gb/s).
func LinkBandwidthGbps(p Params, freqMHz float64) float64 {
	return float64(p.WordBits) * freqMHz * 1e6 / 1e9
}

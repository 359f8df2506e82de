// Package netlist provides structural hardware description: composable
// component builders (multiplexer trees, crossbars, shift FIFOs,
// arbiters, configuration memories, slot tables) whose cell counts
// determine area, leakage and clock load when priced with a stdcell.Lib.
//
// This is the reproduction's stand-in for the paper's synthesis flow: the
// routers are described as netlists of reference cells, and Table 4's area
// breakdown, maximum frequency and per-block power coefficients are rolled
// up from those netlists instead of from a proprietary Synopsys run.
package netlist

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/stdcell"
)

// Component is one logical block of a design (e.g. "crossbar",
// "buffering"), described by its cell census.
type Component struct {
	// Name labels the block; Table 4 uses the names crossbar, buffering,
	// arbitration, configuration, data converter and misc.
	Name string

	// DFFs is the number of discrete flip-flops (pipeline registers,
	// state machines, counters, configuration bits).
	DFFs int

	// BufBits is the number of FIFO/register-file storage bits. They are
	// priced with the denser BufBit cell and the lighter clock load.
	BufBits int

	// CombGE is the combinational logic in NAND2 gate equivalents
	// (multiplexers, decoders, arbitration logic).
	CombGE float64
}

// Area returns the component's cell area in µm² (before synthesis overhead).
func (c Component) Area(lib stdcell.Lib) float64 {
	return lib.GE(float64(c.DFFs)*lib.DFFAreaGE+
		float64(c.BufBits)*lib.BufBitAreaGE) + lib.GE(c.CombGE)
}

// ClockEnergyPerCycle returns the energy in fJ the component draws from the
// clock network every cycle (the paper's dynamic-power offset).
func (c Component) ClockEnergyPerCycle(lib stdcell.Lib) float64 {
	return float64(c.DFFs)*lib.EClkDFF + float64(c.BufBits)*lib.EClkBufBit
}

// Add returns the cell-wise sum of two components, keeping c's name.
func (c Component) Add(o Component) Component {
	c.DFFs += o.DFFs
	c.BufBits += o.BufBits
	c.CombGE += o.CombGE
	return c
}

// Design is a named collection of components plus a critical-path estimate.
type Design struct {
	// Name identifies the design (e.g. "circuit-switched router").
	Name string

	// Blocks are the design's components in presentation order.
	Blocks []Component

	// CriticalPathFO4 is the deepest register-to-register combinational
	// path in FO4 units; it determines the maximum clock frequency.
	CriticalPathFO4 float64
}

// AddBlock appends a component to the design.
func (d *Design) AddBlock(c Component) { d.Blocks = append(d.Blocks, c) }

// Block returns the component with the given name and whether it exists.
func (d *Design) Block(name string) (Component, bool) {
	for _, b := range d.Blocks {
		if b.Name == name {
			return b, true
		}
	}
	return Component{}, false
}

// TotalCells returns the summed cell census of all blocks.
func (d *Design) TotalCells() Component {
	t := Component{Name: d.Name}
	for _, b := range d.Blocks {
		t = t.Add(b)
	}
	return t
}

// AreaUM2 returns the design's total area in µm² including the library's
// synthesis overhead (clock tree, wire buffers, utilisation).
func (d *Design) AreaUM2(lib stdcell.Lib) float64 {
	return d.TotalCells().Area(lib) * lib.SynthOverhead
}

// AreaMM2 returns the total area in mm² including synthesis overhead.
func (d *Design) AreaMM2(lib stdcell.Lib) float64 { return d.AreaUM2(lib) / 1e6 }

// BlockAreaMM2 returns the named block's area in mm² including overhead, or
// 0 if the block does not exist.
func (d *Design) BlockAreaMM2(lib stdcell.Lib, name string) float64 {
	b, ok := d.Block(name)
	if !ok {
		return 0
	}
	return b.Area(lib) * lib.SynthOverhead / 1e6
}

// LeakageUW returns the design's static power in µW.
func (d *Design) LeakageUW(lib stdcell.Lib) float64 {
	return lib.LeakageUW(d.AreaUM2(lib))
}

// ClockEnergyPerCycle returns the whole design's per-cycle clock energy in
// fJ (ungated).
func (d *Design) ClockEnergyPerCycle(lib stdcell.Lib) float64 {
	var e float64
	for _, b := range d.Blocks {
		e += b.ClockEnergyPerCycle(lib)
	}
	return e
}

// MaxFreqMHz returns the design's maximum clock frequency in MHz.
func (d *Design) MaxFreqMHz(lib stdcell.Lib) float64 {
	return lib.MaxFreqMHz(d.CriticalPathFO4)
}

// Report renders a per-block area table, for debugging and the synthesis
// tool. Blocks appear in insertion order.
func (d *Design) Report(lib stdcell.Lib) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (critical path %.1f FO4, fmax %.0f MHz)\n",
		d.Name, d.CriticalPathFO4, d.MaxFreqMHz(lib))
	for _, blk := range d.Blocks {
		fmt.Fprintf(&b, "  %-16s %8.4f mm²  (%5d DFF, %5d buf bits, %7.0f GE comb)\n",
			blk.Name, blk.Area(lib)*lib.SynthOverhead/1e6, blk.DFFs, blk.BufBits, blk.CombGE)
	}
	fmt.Fprintf(&b, "  %-16s %8.4f mm²\n", "total", d.AreaMM2(lib))
	return b.String()
}

// Validate checks structural sanity: non-empty, unique block names,
// non-negative counts.
func (d *Design) Validate() error {
	if d.Name == "" {
		return fmt.Errorf("netlist: design without name")
	}
	if len(d.Blocks) == 0 {
		return fmt.Errorf("netlist: design %q has no blocks", d.Name)
	}
	names := make([]string, 0, len(d.Blocks))
	for _, b := range d.Blocks {
		if b.DFFs < 0 || b.BufBits < 0 || b.CombGE < 0 {
			return fmt.Errorf("netlist: block %q has negative cell counts", b.Name)
		}
		names = append(names, b.Name)
	}
	sort.Strings(names)
	for i := 1; i < len(names); i++ {
		if names[i] == names[i-1] {
			return fmt.Errorf("netlist: duplicate block name %q", names[i])
		}
	}
	if d.CriticalPathFO4 < 0 {
		return fmt.Errorf("netlist: negative critical path")
	}
	return nil
}

// --- Component builders -------------------------------------------------

// MuxTreeGE returns the gate-equivalent cost of an n:1 multiplexer of one
// bit, built from 2:1 stages: an n:1 mux needs n-1 two-input muxes.
func MuxTreeGE(lib stdcell.Lib, ways int) float64 {
	if ways < 1 {
		panic("netlist: mux with no inputs")
	}
	return float64(ways-1) * lib.Mux2AreaGE
}

// MuxTreeDepthFO4 returns the delay of an n:1 mux tree in FO4 units. Each
// 2:1 stage costs about 0.9 FO4 including its select buffering.
func MuxTreeDepthFO4(ways int) float64 {
	if ways < 1 {
		panic("netlist: mux with no inputs")
	}
	return 0.9 * math.Ceil(math.Log2(float64(ways)))
}

// Crossbar returns an inputs×outputs crossbar of the given bit width with
// registered outputs, as used by both routers. Per output bit it costs an
// inputs:1 mux tree plus one output flip-flop; the select decode adds a
// small per-output overhead.
func Crossbar(lib stdcell.Lib, name string, inputs, outputs, width int) Component {
	mustNonNeg("Crossbar", inputs, outputs, width)
	muxGE := MuxTreeGE(lib, inputs) * float64(outputs*width)
	decodeGE := 3.0 * float64(outputs) * math.Ceil(math.Log2(math.Max(float64(inputs), 2)))
	return Component{
		Name:   name,
		DFFs:   outputs * width,
		CombGE: muxGE + decodeGE,
	}
}

// ShiftFIFO returns a width×depth FIFO implemented as a shift register with
// latch-based storage bits and a fill counter — the compact style small NoC
// routers synthesize to, with no read multiplexer.
func ShiftFIFO(name string, width, depth int) Component {
	mustNonNeg("ShiftFIFO", width, depth)
	cntBits := int(math.Ceil(math.Log2(float64(depth)+1))) + 1
	return Component{
		Name:    name,
		BufBits: width * depth,
		DFFs:    cntBits,
		CombGE:  0.8 * float64(width*depth), // shift enables
	}
}

// RoundRobinArbiter returns an n-requester round-robin arbiter: a rotating
// priority pointer plus the grant logic (~2 GE per requester).
func RoundRobinArbiter(name string, n int) Component {
	mustNonNeg("RoundRobinArbiter", n)
	ptrBits := int(math.Ceil(math.Log2(math.Max(float64(n), 2))))
	return Component{
		Name:   name,
		DFFs:   ptrBits,
		CombGE: 2 * float64(n),
	}
}

// ConfigMemory returns a configuration store of n bits with a load decoder,
// as used by the circuit-switched router (5 bits per output lane).
func ConfigMemory(name string, bits int) Component {
	mustNonNeg("ConfigMemory", bits)
	return Component{
		Name:   name,
		DFFs:   bits,
		CombGE: 1.5 * float64(bits) / 5, // write decode per 5-bit entry
	}
}

// SlotTable returns a TDM slot table of slots×entryBits storage bits plus a
// slot counter, as used by the Æthereal-style router.
func SlotTable(name string, slots, entryBits int) Component {
	mustNonNeg("SlotTable", slots, entryBits)
	ctr := int(math.Ceil(math.Log2(math.Max(float64(slots), 2))))
	return Component{
		Name:    name,
		BufBits: slots * entryBits,
		DFFs:    ctr,
		CombGE:  float64(entryBits) * 2,
	}
}

func mustNonNeg(what string, ns ...int) {
	for _, n := range ns {
		if n < 0 {
			panic(fmt.Sprintf("netlist: %s with negative parameter", what))
		}
	}
}

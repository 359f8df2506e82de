package netlist

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/stdcell"
)

var lib = stdcell.Default013()

func TestComponentArea(t *testing.T) {
	c := Component{Name: "x", DFFs: 10, BufBits: 20, CombGE: 30}
	want := lib.GE(10*lib.DFFAreaGE+20*lib.BufBitAreaGE) + lib.GE(30)
	if got := c.Area(lib); math.Abs(got-want) > 1e-9 {
		t.Fatalf("Area = %v, want %v", got, want)
	}
}

func TestComponentAddScale(t *testing.T) {
	a := Component{Name: "a", DFFs: 1, BufBits: 2, CombGE: 3}
	b := Component{Name: "b", DFFs: 10, BufBits: 20, CombGE: 30}
	s := a.Add(b)
	if s.Name != "a" || s.DFFs != 11 || s.BufBits != 22 || s.CombGE != 33 {
		t.Fatalf("Add = %+v", s)
	}
}

func TestClockEnergy(t *testing.T) {
	c := Component{DFFs: 100, BufBits: 1000}
	want := 100*lib.EClkDFF + 1000*lib.EClkBufBit
	if got := c.ClockEnergyPerCycle(lib); math.Abs(got-want) > 1e-9 {
		t.Fatalf("ClockEnergyPerCycle = %v, want %v", got, want)
	}
}

func TestDesignRollup(t *testing.T) {
	d := Design{Name: "d", CriticalPathFO4: 10}
	d.AddBlock(Component{Name: "regs", DFFs: 100})
	d.AddBlock(ShiftFIFO("fifo", 16, 8))
	if err := d.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	tot := d.TotalCells()
	if tot.DFFs != 100+5 { // 100 regs + a 5-bit fill counter (depth 8 -> ceil(log2 9)+1 bits)
		t.Fatalf("total DFFs = %d", tot.DFFs)
	}
	if tot.BufBits != 16*8 {
		t.Fatalf("total buf bits = %d", tot.BufBits)
	}
	if d.AreaUM2(lib) <= d.TotalCells().Area(lib) {
		t.Fatal("synthesis overhead not applied")
	}
	if _, ok := d.Block("fifo"); !ok {
		t.Fatal("Block lookup failed")
	}
	if _, ok := d.Block("nope"); ok {
		t.Fatal("Block lookup found nonexistent block")
	}
	if d.BlockAreaMM2(lib, "nope") != 0 {
		t.Fatal("BlockAreaMM2 of missing block should be 0")
	}
}

func TestDesignValidateErrors(t *testing.T) {
	cases := map[string]Design{
		"no name":   {Blocks: []Component{{Name: "a"}}},
		"no blocks": {Name: "d"},
		"negative":  {Name: "d", Blocks: []Component{{Name: "a", DFFs: -1}}},
		"duplicate": {Name: "d", Blocks: []Component{{Name: "a"}, {Name: "a"}}},
		"neg path":  {Name: "d", Blocks: []Component{{Name: "a"}}, CriticalPathFO4: -1},
	}
	for name, d := range cases {
		if d.Validate() == nil {
			t.Errorf("%s: Validate accepted invalid design", name)
		}
	}
}

func TestMuxTree(t *testing.T) {
	if got := MuxTreeGE(lib, 16); math.Abs(got-15*lib.Mux2AreaGE) > 1e-9 {
		t.Fatalf("MuxTreeGE(16) = %v", got)
	}
	if got := MuxTreeDepthFO4(16); math.Abs(got-0.9*4) > 1e-9 {
		t.Fatalf("MuxTreeDepthFO4(16) = %v", got)
	}
	if MuxTreeGE(lib, 1) != 0 {
		t.Fatal("1:1 mux should be free")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on 0-way mux")
		}
	}()
	MuxTreeGE(lib, 0)
}

func TestCrossbarShape(t *testing.T) {
	// The paper's 16x20 crossbar of 5-bit lanes (4 data + 1 ack return).
	c := Crossbar(lib, "crossbar", 16, 20, 5)
	if c.DFFs != 100 {
		t.Fatalf("crossbar output registers = %d, want 100", c.DFFs)
	}
	if c.CombGE < 15*lib.Mux2AreaGE*100 {
		t.Fatal("crossbar mux logic undersized")
	}
	// Crossbar area must grow superlinearly with width*outputs.
	small := Crossbar(lib, "s", 4, 4, 4)
	if small.Area(lib) >= c.Area(lib) {
		t.Fatal("crossbar area not monotone in size")
	}
}

func TestArbiterShape(t *testing.T) {
	a := RoundRobinArbiter("arb", 20)
	if a.DFFs != 5 {
		t.Fatalf("arbiter DFFs = %d, want 5 (pointer only)", a.DFFs)
	}
	if a.CombGE <= 0 {
		t.Fatal("arbiter has no logic")
	}
}

func TestShiftFIFOShape(t *testing.T) {
	f := ShiftFIFO("f", 18, 8)
	if f.BufBits != 18*8 {
		t.Fatalf("shift FIFO storage = %d bits", f.BufBits)
	}
	if f.DFFs != 5 { // fill counter of ceil(log2 9)+1 bits
		t.Fatalf("shift FIFO fill counter = %d DFFs, want 5", f.DFFs)
	}
	if f.CombGE <= 0 {
		t.Fatal("shift FIFO has no shift-enable logic")
	}
}

func TestConfigMemoryShape(t *testing.T) {
	// Paper: 5x20 = 100 bits of configuration per router.
	c := ConfigMemory("configuration", 100)
	if c.DFFs != 100 {
		t.Fatalf("config bits = %d, want 100", c.DFFs)
	}
}

func TestSlotTableShape(t *testing.T) {
	s := SlotTable("slots", 32, 18)
	if s.BufBits != 32*18 {
		t.Fatalf("slot table bits = %d", s.BufBits)
	}
	if s.DFFs != 5 {
		t.Fatalf("slot counter = %d bits, want 5", s.DFFs)
	}
}

func TestBuildersPanicOnNegative(t *testing.T) {
	for name, f := range map[string]func(){
		"Crossbar":  func() { Crossbar(lib, "c", -1, 2, 3) },
		"ShiftFIFO": func() { ShiftFIFO("f", 4, -2) },
		"Arbiter":   func() { RoundRobinArbiter("a", -3) },
		"Config":    func() { ConfigMemory("c", -1) },
		"SlotTable": func() { SlotTable("s", -1, 4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestReportContainsBlocks(t *testing.T) {
	d := Design{Name: "router", CriticalPathFO4: 9}
	d.AddBlock(Component{Name: "regs", DFFs: 10})
	r := d.Report(lib)
	for _, want := range []string{"router", "regs", "total", "fmax"} {
		if !strings.Contains(r, want) {
			t.Errorf("report missing %q:\n%s", want, r)
		}
	}
}

func TestAreaAdditivityProperty(t *testing.T) {
	// The area of k instances summed with Add equals k times the area
	// of one instance.
	f := func(dff, buf uint8, n uint8) bool {
		c := Component{Name: "c", DFFs: int(dff), BufBits: int(buf), CombGE: float64(dff) * 1.5}
		k := int(n%8) + 1
		sum := c
		for i := 1; i < k; i++ {
			sum = sum.Add(c)
		}
		return math.Abs(sum.Area(lib)-float64(k)*c.Area(lib)) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFreqFromDesign(t *testing.T) {
	d := Design{Name: "d", Blocks: []Component{{Name: "b"}}, CriticalPathFO4: 10.3}
	want := lib.MaxFreqMHz(10.3)
	if got := d.MaxFreqMHz(lib); math.Abs(got-want) > 1e-9 {
		t.Fatalf("MaxFreqMHz = %v, want %v", got, want)
	}
}

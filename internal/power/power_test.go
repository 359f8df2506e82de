package power

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/netlist"
	"repro/internal/stdcell"
)

var lib = stdcell.Default013()

func testDesign() *netlist.Design {
	d := &netlist.Design{Name: "test", CriticalPathFO4: 10}
	d.AddBlock(netlist.Component{Name: "regs", DFFs: 100})
	return d
}

func TestMeterStaticOnly(t *testing.T) {
	d := testDesign()
	m := NewMeter(d, lib, 25)
	for i := 0; i < 1000; i++ {
		m.Tick()
	}
	b := m.Report("idle")
	if math.Abs(b.StaticUW-d.LeakageUW(lib)) > 1e-9 {
		t.Fatalf("static = %v, want %v", b.StaticUW, d.LeakageUW(lib))
	}
	// Ungated clocking of 100 DFFs: 100 * EClkDFF fJ per cycle
	// => µW/MHz = pJ/cycle.
	wantPerMHz := 100 * lib.EClkDFF / 1e3
	if math.Abs(b.DynamicPerMHz()-wantPerMHz) > 1e-9 {
		t.Fatalf("dynamic/MHz = %v, want %v", b.DynamicPerMHz(), wantPerMHz)
	}
	if b.SwitchingUW != 0 {
		t.Fatalf("switching with no toggles = %v", b.SwitchingUW)
	}
}

func TestDynamicScalesWithFrequency(t *testing.T) {
	d := testDesign()
	run := func(freq float64) Breakdown {
		m := NewMeter(d, lib, freq)
		for i := 0; i < 100; i++ {
			m.Tick()
			m.AddToggles(ToggleReg, 10)
		}
		return m.Report("x")
	}
	b25, b100 := run(25), run(100)
	if math.Abs(b100.DynamicUW()/b25.DynamicUW()-4) > 1e-9 {
		t.Fatalf("dynamic power should scale linearly with f: %v vs %v",
			b25.DynamicUW(), b100.DynamicUW())
	}
	// Static power is frequency independent.
	if math.Abs(b100.StaticUW-b25.StaticUW) > 1e-12 {
		t.Fatal("static power should not depend on frequency")
	}
	// µW/MHz is frequency invariant.
	if math.Abs(b100.DynamicPerMHz()-b25.DynamicPerMHz()) > 1e-9 {
		t.Fatal("µW/MHz should be frequency invariant")
	}
}

func TestToggleEnergySplit(t *testing.T) {
	d := testDesign()
	m := NewMeter(d, lib, 25)
	m.TickGated(0) // isolate toggle energy from clock energy
	m.AddToggles(ToggleLink, 100)
	b := m.Report("links")
	// Switching on a link: 100 transitions of CLink load over 1 cycle
	// at 25 MHz: E = 100 * ESwitch(CLink) fJ, t = 0.04 µs.
	wantSw := 100 * lib.ESwitch(lib.CLink()) / 0.04 / 1e3
	if math.Abs(b.SwitchingUW-wantSw) > 1e-6 {
		t.Fatalf("switching = %v µW, want %v", b.SwitchingUW, wantSw)
	}
	wantInt := 100 * lib.EIntGateToggle / 0.04 / 1e3
	if math.Abs(b.InternalUW-wantInt) > 1e-6 {
		t.Fatalf("internal = %v µW, want %v", b.InternalUW, wantInt)
	}
}

func TestGatingReducesInternal(t *testing.T) {
	d := testDesign()
	gated, ungated := NewMeter(d, lib, 25), NewMeter(d, lib, 25)
	for i := 0; i < 500; i++ {
		ungated.Tick()
		gated.TickGated(ungated.FullClockEnergyPerCycle() * 0.25)
	}
	bu, bg := ungated.Report("u"), gated.Report("g")
	if bg.InternalUW >= bu.InternalUW {
		t.Fatal("gating did not reduce internal power")
	}
	if math.Abs(bg.InternalUW/bu.InternalUW-0.25) > 1e-9 {
		t.Fatalf("gated ratio = %v, want 0.25", bg.InternalUW/bu.InternalUW)
	}
}

func TestTickGatedBounds(t *testing.T) {
	m := NewMeter(testDesign(), lib, 25)
	for _, bad := range []float64{-1, m.FullClockEnergyPerCycle() * 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("TickGated(%v) did not panic", bad)
				}
			}()
			m.TickGated(bad)
		}()
	}
}

func TestMeterCounters(t *testing.T) {
	m := NewMeter(testDesign(), lib, 50)
	m.Tick()
	m.Tick()
	m.AddToggles(ToggleGate, 7)
	m.AddToggles(ToggleGate, 3)
	m.AddToggles(ToggleBufBit, 5)
	if m.Cycles() != 2 {
		t.Fatalf("Cycles = %d", m.Cycles())
	}
	if m.Toggles(ToggleGate) != 10 || m.Toggles(ToggleBufBit) != 5 {
		t.Fatalf("toggle counters wrong: %d, %d",
			m.Toggles(ToggleGate), m.Toggles(ToggleBufBit))
	}
	if math.Abs(m.SimTimeUS()-2.0/50) > 1e-12 {
		t.Fatalf("SimTimeUS = %v", m.SimTimeUS())
	}
	m.Reset()
	if m.Cycles() != 0 || m.Toggles(ToggleGate) != 0 {
		t.Fatal("Reset did not clear counters")
	}
}

func TestMeterPanics(t *testing.T) {
	if err := func() (err error) {
		defer func() {
			if recover() == nil {
				t.Error("Report with zero cycles did not panic")
			}
		}()
		NewMeter(testDesign(), lib, 25).Report("empty")
		return nil
	}(); err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("negative toggles did not panic")
			}
		}()
		m := NewMeter(testDesign(), lib, 25)
		m.AddToggles(ToggleReg, -1)
	}()
	for _, f := range []float64{0, -25, math.NaN(), math.Inf(1), math.Inf(-1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("frequency %v did not panic", f)
				}
			}()
			NewMeter(testDesign(), lib, f)
		}()
	}
}

// TestMeterToggleTableMatchesToggleEnergy: the per-kind energies a meter
// resolves at construction are toggleEnergy's, bit for bit, on both
// library corners, so AddToggles and ClassUW charge exactly what the
// per-call lookup charged.
func TestMeterToggleTableMatchesToggleEnergy(t *testing.T) {
	for _, l := range []stdcell.Lib{stdcell.Default013(), stdcell.HighVT013()} {
		m := NewMeter(testDesign(), l, 25)
		for k := ToggleKind(0); k < numToggleKinds; k++ {
			in, sw := toggleEnergy(l, k)
			got := m.energy[k]
			if math.Float64bits(got.internal) != math.Float64bits(in) ||
				math.Float64bits(got.switching) != math.Float64bits(sw) {
				t.Errorf("%s %v: table (%v, %v), toggleEnergy (%v, %v)",
					l.Name, k, got.internal, got.switching, in, sw)
			}
		}
	}
}

func TestBreakdownArithmetic(t *testing.T) {
	b := Breakdown{StaticUW: 10, InternalUW: 20, SwitchingUW: 5, FreqMHz: 25}
	if b.DynamicUW() != 25 || b.TotalUW() != 35 {
		t.Fatalf("arithmetic wrong: dyn=%v tot=%v", b.DynamicUW(), b.TotalUW())
	}
	if b.DynamicPerMHz() != 1 {
		t.Fatalf("per MHz = %v", b.DynamicPerMHz())
	}
	if (Breakdown{}).DynamicPerMHz() != 0 {
		t.Fatal("zero-frequency breakdown should normalize to 0")
	}
}

func TestToggleKindString(t *testing.T) {
	names := map[ToggleKind]string{
		ToggleReg: "register", ToggleGate: "gate",
		ToggleLink: "link", ToggleBufBit: "buffer-bit",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), want)
		}
	}
	if ToggleKind(99).String() == "" {
		t.Error("unknown kind should still render")
	}
}

func TestClockEnergyFor(t *testing.T) {
	got := ClockEnergyFor(lib, 10, 100)
	want := 10*lib.EClkDFF + 100*lib.EClkBufBit
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("ClockEnergyFor = %v, want %v", got, want)
	}
	defer func() {
		if recover() == nil {
			t.Error("negative census did not panic")
		}
	}()
	ClockEnergyFor(lib, -1, 0)
}

func TestEnergyAdditivityProperty(t *testing.T) {
	// Recording toggles in one call or split across calls is equivalent.
	f := func(n uint8, k uint8) bool {
		kind := ToggleKind(int(k) % int(numToggleKinds))
		a := NewMeter(testDesign(), lib, 25)
		b := NewMeter(testDesign(), lib, 25)
		a.Tick()
		b.Tick()
		a.AddToggles(kind, int(n))
		for i := 0; i < int(n); i++ {
			b.AddToggles(kind, 1)
		}
		ra, rb := a.Report("a"), b.Report("b")
		return math.Abs(ra.TotalUW()-rb.TotalUW()) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestAttribution(t *testing.T) {
	m := NewMeter(testDesign(), lib, 25)
	m.Tick()
	m.AddToggles(ToggleReg, 10)
	m.AddToggles(ToggleLink, 5)
	att := m.AttributionSorted()
	// The attribution sums to the dynamic power of the report.
	var sum float64
	for _, e := range att {
		switch e.Class {
		case "register", "link", "clock":
			if e.UW <= 0 {
				t.Fatalf("attribution incomplete: %v", att)
			}
		default:
			if e.UW != 0 {
				t.Fatalf("phantom attribution: %v", att)
			}
		}
		sum += e.UW
	}
	b := m.Report("x")
	if math.Abs(sum-b.DynamicUW()) > 1e-9 {
		t.Fatalf("attribution sums to %v, dynamic is %v", sum, b.DynamicUW())
	}
	// Before any cycle, attribution is all zeros, not a panic.
	fresh := NewMeter(testDesign(), lib, 25)
	for _, e := range fresh.AttributionSorted() {
		if e.UW != 0 {
			t.Fatalf("fresh meter attributes %v to %s", e.UW, e.Class)
		}
	}
	if fresh.ClassUW(ToggleReg) != 0 {
		t.Fatal("fresh ClassUW not zero")
	}
}

// TestBatchedTicksBitIdentical pins the contract the kernel's
// fast-forward and parked replay rely on: recording an idle window with one TickN /
// TickGatedN call produces bit-identical reports to recording the same
// cycles one at a time, for any interleaving of energy levels.
func TestBatchedTicksBitIdentical(t *testing.T) {
	d := testDesign()
	gatedFJ := d.ClockEnergyPerCycle(lib) * 0.25
	perCycle := NewMeter(d, lib, 25)
	batched := NewMeter(d, lib, 25)

	for i := 0; i < 700; i++ {
		perCycle.Tick()
	}
	batched.TickN(700)
	for i := 0; i < 300; i++ {
		perCycle.TickGated(gatedFJ)
	}
	batched.TickGatedN(gatedFJ, 300)
	for i := 0; i < 11; i++ {
		perCycle.TickGated(gatedFJ)
		batched.TickGated(gatedFJ)
	}

	a, b := perCycle.Report("a"), batched.Report("b")
	if a.Cycles != b.Cycles || a.InternalUW != b.InternalUW ||
		a.SwitchingUW != b.SwitchingUW || a.StaticUW != b.StaticUW {
		t.Fatalf("batched ticks diverge: per-cycle %+v batched %+v", a, b)
	}
	// Zero-length batches are no-ops.
	before := batched.Cycles()
	batched.TickN(0)
	batched.TickGatedN(gatedFJ, 0)
	if batched.Cycles() != before {
		t.Fatal("TickN(0) advanced the cycle count")
	}
}

// TestAttributionSortedDeterministic is the regression test for the
// attribution ordering contract: the slice is sorted by class name and
// covers every toggle class plus the clock, so any JSON/CSV encoder
// iterating it is deterministic by construction.
func TestAttributionSortedDeterministic(t *testing.T) {
	d := testDesign()
	m := NewMeter(d, lib, 25)
	for i := 0; i < 100; i++ {
		m.Tick()
		m.AddToggles(ToggleReg, 3)
		m.AddToggles(ToggleLink, 2)
	}
	entries := m.AttributionSorted()
	if want := int(numToggleKinds) + 1; len(entries) != want {
		t.Fatalf("attribution has %d entries, want %d", len(entries), want)
	}
	for i := 1; i < len(entries); i++ {
		if entries[i-1].Class >= entries[i].Class {
			t.Fatalf("attribution not sorted: %q before %q",
				entries[i-1].Class, entries[i].Class)
		}
	}
	var sum float64
	for _, e := range entries {
		sum += e.UW
	}
	if b := m.Report("x"); math.Abs(sum-b.DynamicUW()) > 1e-9*b.DynamicUW() {
		t.Fatalf("attribution sums to %v, report says %v", sum, b.DynamicUW())
	}
	// Repeated calls return identical content (no map-iteration leakage).
	again := m.AttributionSorted()
	for i := range entries {
		if entries[i] != again[i] {
			t.Fatalf("attribution changed between calls: %+v vs %+v", entries[i], again[i])
		}
	}
}

package aethereal

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/stdcell"
)

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Params{
		{Ports: 1, WordBits: 32, Slots: 8, BEDepth: 4},
		{Ports: 6, WordBits: 4, Slots: 8, BEDepth: 4},
		{Ports: 6, WordBits: 128, Slots: 8, BEDepth: 4},
		{Ports: 6, WordBits: 32, Slots: 0, BEDepth: 4},
		{Ports: 6, WordBits: 32, Slots: 8, BEDepth: 0},
	}
	for i, p := range bad {
		if p.Validate() == nil {
			t.Errorf("case %d accepted %+v", i, p)
		}
	}
	// The table and buffer knobs are bounded above, with errors naming
	// the field.
	atCap := Params{Ports: 6, WordBits: 32, Slots: 1024, BEDepth: 1024}
	if err := atCap.Validate(); err != nil {
		t.Errorf("%+v rejected: %v", atCap, err)
	}
	over := []struct {
		p     Params
		field string
	}{
		{Params{Ports: 6, WordBits: 32, Slots: 1025, BEDepth: 4}, "Slots"},
		{Params{Ports: 6, WordBits: 32, Slots: math.MaxInt, BEDepth: 4}, "Slots"},
		{Params{Ports: 6, WordBits: 32, Slots: 8, BEDepth: 1025}, "BEDepth"},
		{Params{Ports: 6, WordBits: 32, Slots: 8, BEDepth: math.MaxInt}, "BEDepth"},
	}
	for _, c := range over {
		if err := c.p.Validate(); err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("%+v: error %v, want one naming %s", c.p, err, c.field)
		}
	}
}

func TestSlotTableReserve(t *testing.T) {
	p := DefaultParams()
	tb := NewSlotTable(p)
	if err := tb.Reserve(0, 1, 2); err != nil {
		t.Fatal(err)
	}
	// Same output, same slot: contention.
	if err := tb.Reserve(0, 3, 2); err == nil {
		t.Fatal("double reservation accepted")
	}
	// Same ports, different slot: fine.
	if err := tb.Reserve(1, 3, 2); err != nil {
		t.Fatal(err)
	}
	if tb.Entry(0, 2) != 1 || tb.Entry(1, 2) != 3 || tb.Entry(2, 2) != NoInput {
		t.Fatal("entries wrong")
	}
	for _, bad := range [][3]int{{-1, 0, 1}, {0, -1, 1}, {0, 0, 9}, {99, 0, 1}, {2, 4, 4}} {
		if err := tb.Reserve(bad[0], bad[1], bad[2]); err == nil {
			t.Errorf("Reserve%v accepted", bad)
		}
	}
}

func TestSlotTableAccounting(t *testing.T) {
	p := DefaultParams()
	tb := NewSlotTable(p)
	for s := 0; s < 8; s++ {
		if err := tb.Reserve(s, 0, 1); err != nil {
			t.Fatal(err)
		}
	}
	if got := tb.ReservedSlots(0, 1); got != 8 {
		t.Fatalf("ReservedSlots = %d, want 8", got)
	}
	if err := tb.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSlotTableValidateCatchesInputFanout(t *testing.T) {
	p := DefaultParams()
	tb := NewSlotTable(p)
	if err := tb.Reserve(0, 1, 2); err != nil {
		t.Fatal(err)
	}
	if err := tb.Reserve(0, 1, 3); err != nil {
		t.Fatal(err) // Reserve allows it; Validate flags it
	}
	if tb.Validate() == nil {
		t.Fatal("Validate missed an input feeding two outputs in one slot")
	}
}

func TestGTForwardingFollowsSchedule(t *testing.T) {
	p := Params{Ports: 4, WordBits: 32, Slots: 4, BEDepth: 4}
	r := NewRouter(p)
	data := uint32(0)
	valid := true
	r.ConnectIn(0, &data, &valid)
	// Input 0 -> output 2 in slots 0 and 2 only.
	if err := r.Table.Reserve(0, 0, 2); err != nil {
		t.Fatal(err)
	}
	if err := r.Table.Reserve(2, 0, 2); err != nil {
		t.Fatal(err)
	}
	w := sim.NewWorld()
	w.Add(r)
	got := 0
	for cyc := 0; cyc < 40; cyc++ {
		data = uint32(cyc)
		slotNow := r.Slot()
		w.Step()
		if r.OutValid[2] {
			got++
			if slotNow != 0 && slotNow != 2 {
				t.Fatalf("output valid outside reserved slots (slot %d)", slotNow)
			}
			if r.Out[2] != uint32(cyc) {
				t.Fatalf("wrong word forwarded: %d, want %d", r.Out[2], cyc)
			}
		}
	}
	// 2 of every 4 slots over 40 cycles = 20 words: the allocated GT
	// bandwidth share is exactly ReservedSlots/Slots.
	if got != 20 {
		t.Fatalf("forwarded %d words, want 20", got)
	}
}

func TestNetlistMatchesTable4(t *testing.T) {
	p := DefaultParams()
	lib := stdcell.Default013()
	d := Netlist(p, lib)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	// Table 4 (layouted): 0.175 mm², 500 MHz, 16 Gb/s per link.
	if area := d.AreaMM2(lib); area < 0.175*0.75 || area > 0.175*1.25 {
		t.Errorf("area %.4f mm², paper 0.1750 (±25%%)", area)
	}
	if f := d.MaxFreqMHz(lib); f < 500*0.8 || f > 500*1.2 {
		t.Errorf("fmax %.0f MHz, paper 500 (±20%%)", f)
	}
	if bw := LinkBandwidthGbps(p, 500); bw != 16 {
		t.Errorf("bandwidth %.1f Gb/s, want 16", bw)
	}
}

func TestGTShareProperty(t *testing.T) {
	// For any reservation count k, the measured GT throughput share over
	// whole table periods equals exactly k/Slots.
	f := func(kRaw uint8) bool {
		p := Params{Ports: 3, WordBits: 32, Slots: 8, BEDepth: 2}
		k := int(kRaw)%p.Slots + 1
		r := NewRouter(p)
		data, valid := uint32(1), true
		r.ConnectIn(0, &data, &valid)
		for s := 0; s < k; s++ {
			if r.Table.Reserve(s, 0, 1) != nil {
				return false
			}
		}
		w := sim.NewWorld()
		w.Add(r)
		got := 0
		for i := 0; i < p.Slots*10; i++ {
			w.Step()
			if r.OutValid[1] {
				got++
			}
		}
		return got == k*10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestBindMeterTicksEveryCycle: with the meter folded into the router,
// the clock network must be charged exactly once per cycle whatever mix
// of Commit, single-cycle and batched IdleWindow advanced the clock — the
// bit-identity the TDM fast-forward rests on.
func TestBindMeterTicksEveryCycle(t *testing.T) {
	lib := stdcell.Default013()
	p := DefaultParams()

	perCycle := power.NewMeter(Netlist(p, lib), lib, 25)
	rA := NewRouter(p)
	rA.BindMeter(perCycle)
	for i := 0; i < 700; i++ {
		rA.Eval()
		rA.Commit()
	}
	for i := 0; i < 300; i++ {
		rA.IdleWindow(1)
	}

	batched := power.NewMeter(Netlist(p, lib), lib, 25)
	rB := NewRouter(p)
	rB.BindMeter(batched)
	for i := 0; i < 700; i++ {
		rB.Eval()
		rB.Commit()
	}
	rB.IdleWindow(300)

	if rA.Slot() != rB.Slot() {
		t.Fatalf("slot counters diverged: %d vs %d", rA.Slot(), rB.Slot())
	}
	a := perCycle.Report("per-cycle")
	b := batched.Report("batched")
	if a.Cycles != 1000 || b.Cycles != 1000 {
		t.Fatalf("cycle counts %d / %d, want 1000", a.Cycles, b.Cycles)
	}
	if a.InternalUW != b.InternalUW || a.SwitchingUW != b.SwitchingUW || a.StaticUW != b.StaticUW {
		t.Fatalf("batched idle window is not bit-identical:\nper-cycle %+v\nbatched   %+v", a, b)
	}
}

package core

import (
	"math/bits"
	"testing"
	"testing/quick"
)

func TestConfigCmdEncodeWidth(t *testing.T) {
	p := DefaultParams()
	cmd := ConfigCmd{Out: 19, Sel: LaneSel{Enable: true, In: 15}}
	w, err := cmd.Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	if w >= 1<<10 {
		t.Fatalf("encoded command %#x exceeds the paper's 10 bits", w)
	}
}

func TestConfigCmdRoundTripProperty(t *testing.T) {
	p := DefaultParams()
	f := func(out, in uint8, en bool) bool {
		cmd := ConfigCmd{
			Out: int(out) % p.TotalLanes(),
			Sel: LaneSel{Enable: en, In: int(in) % p.ForeignLanes()},
		}
		w, err := cmd.Encode(p)
		if err != nil {
			return false
		}
		got, err := DecodeConfigCmd(p, w)
		return err == nil && got == cmd
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestConfigCmdEncodeErrors(t *testing.T) {
	p := DefaultParams()
	for _, cmd := range []ConfigCmd{
		{Out: -1}, {Out: 20}, {Out: 0, Sel: LaneSel{In: 16}}, {Out: 0, Sel: LaneSel{In: -1}},
	} {
		if _, err := cmd.Encode(p); err == nil {
			t.Errorf("Encode accepted %+v", cmd)
		}
	}
}

func TestDecodeConfigCmdErrors(t *testing.T) {
	p := DefaultParams()
	if _, err := DecodeConfigCmd(p, 1<<10); err == nil {
		t.Error("decode accepted an 11-bit word")
	}
	// Output lane 21 does not exist (5 bits can encode up to 31).
	bad := uint32(21)
	if _, err := DecodeConfigCmd(p, bad); err == nil {
		t.Error("decode accepted out-of-range lane")
	}
}

func TestConfigMemorySize(t *testing.T) {
	p := DefaultParams()
	if got := p.ConfigBits(); got != 100 {
		t.Fatalf("config memory = %d bits, want the paper's 100", got)
	}
	if got := len(NewConfig(p).sels) * p.ConfigBitsPerLane(); got != p.ConfigBits() {
		t.Fatalf("config memory holds %d bits, ConfigBits says %d", got, p.ConfigBits())
	}
}

func TestConfigSetLaneAndInputFor(t *testing.T) {
	p := DefaultParams()
	c := NewConfig(p)
	in := LaneID{Port: West, Lane: 2}
	out := LaneID{Port: East, Lane: 1}
	rel, err := p.RelIndex(out.Port, in)
	if err != nil {
		t.Fatal(err)
	}
	c.SetLane(p.Global(out), LaneSel{Enable: true, In: rel})
	g, ok := c.InputFor(p.Global(out))
	if !ok || g != p.Global(in) {
		t.Fatalf("InputFor = %d,%v, want %d,true", g, ok, p.Global(in))
	}
	if _, ok := c.InputFor(p.Global(LaneID{Port: North, Lane: 0})); ok {
		t.Fatal("disabled lane reported an input")
	}
	if c.EnabledLanes() != 1 {
		t.Fatalf("EnabledLanes = %d", c.EnabledLanes())
	}
}

func TestConfigBitsReflectChanges(t *testing.T) {
	p := DefaultParams()
	c := NewConfig(p)
	sel := LaneSel{Enable: true, In: 5}
	write := []ConfigCmd{{Out: 0, Sel: sel}}
	want := bits.OnesCount64(selField(p, c.Lane(0)) ^ selField(p, sel))
	if got := c.writeToggles(write); got != want || want == 0 {
		t.Fatalf("write prices %d toggles, want %d (non-zero)", got, want)
	}
	c.SetLane(0, sel)
	// Applying the same value again flips nothing, and a lane written
	// and written back within one batch flips nothing either.
	if got := c.writeToggles(write); got != 0 {
		t.Fatalf("idempotent write prices %d toggles", got)
	}
	if got := c.writeToggles([]ConfigCmd{{Out: 0}, {Out: 0, Sel: sel}}); got != 0 {
		t.Fatalf("written-back lane prices %d toggles", got)
	}
}

func TestConfigCopyIsDeep(t *testing.T) {
	p := DefaultParams()
	c := NewConfig(p)
	c.SetLane(3, LaneSel{Enable: true, In: 1})
	cp := c.Copy()
	c.SetLane(3, LaneSel{})
	if !cp.Lane(3).Enable {
		t.Fatal("copy aliases original")
	}
}

func TestConfigApplyCmd(t *testing.T) {
	p := DefaultParams()
	c := NewConfig(p)
	c.Apply(ConfigCmd{Out: 7, Sel: LaneSel{Enable: true, In: 9}})
	if s := c.Lane(7); !s.Enable || s.In != 9 {
		t.Fatalf("Apply result %+v", s)
	}
}

func TestCircuitCmd(t *testing.T) {
	p := DefaultParams()
	cc := Circuit{In: LaneID{Port: Tile, Lane: 0}, Out: LaneID{Port: East, Lane: 0}}
	cmd, err := cc.Cmd(p)
	if err != nil {
		t.Fatal(err)
	}
	if cmd.Out != p.Global(cc.Out) || !cmd.Sel.Enable {
		t.Fatalf("Cmd = %+v", cmd)
	}
	if g := p.InputLane(East, cmd.Sel.In); g != p.Global(cc.In) {
		t.Fatalf("command selects lane %d, want %d", g, p.Global(cc.In))
	}
	// Same-port circuits are illegal: data does not flow back.
	if _, err := (Circuit{In: LaneID{Port: East, Lane: 0}, Out: LaneID{Port: East, Lane: 1}}).Cmd(p); err == nil {
		t.Fatal("same-port circuit accepted")
	}
}

func TestSetLanePanicsOnBadSelect(t *testing.T) {
	p := DefaultParams()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewConfig(p).SetLane(0, LaneSel{Enable: true, In: 16})
}

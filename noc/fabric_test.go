package noc

import (
	"bytes"
	"strings"
	"testing"
)

// TestTDMSlotTableFull checks that a slot table too short for a
// scenario's streams fails the run with an error naming the stream that
// found no slot and the table's size: with one slot, streams 1 and 3 of
// scenario IV both need output East in slot 0.
func TestTDMSlotTableFull(t *testing.T) {
	sc, err := PaperScenario("IV")
	if err != nil {
		t.Fatal(err)
	}
	_, err = AetherealTDM(WithSlots(1)).Run(sc)
	const want = "slot table full for stream 3 (1 slots, 3 streams)"
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("AetherealTDM(WithSlots(1)) on IV: error %v, want one containing %q", err, want)
	}
}

// TestOtherKindsOptionsIgnored checks that every fabric ignores the
// options meant for the other two kinds: its Result JSON on scenario IV
// and on the hotspot pattern is byte-identical with and without them.
func TestOtherKindsOptionsIgnored(t *testing.T) {
	circuitOpts := []Option{WithLanes(3), WithClockGating(true)}
	packetOpts := []Option{WithVirtualChannels(3), WithBufferDepth(2)}
	tdmOpts := []Option{WithSlots(8), WithBEDepth(4)}
	cat := func(a, b []Option) []Option { return append(append([]Option{}, a...), b...) }
	iv, err := PaperScenario("IV")
	if err != nil {
		t.Fatal(err)
	}
	iv.Cycles = 400
	for _, c := range []struct {
		name  string
		build func(...Option) Fabric
		other []Option
	}{
		{"circuit", CircuitSwitched, cat(packetOpts, tdmOpts)},
		{"packet", PacketSwitched, cat(circuitOpts, tdmOpts)},
		{"aethereal", AetherealTDM, cat(circuitOpts, packetOpts)},
	} {
		for _, sc := range []Scenario{iv, hotspotCBR()} {
			plain := runJSON(t, c.build(), sc)
			if got := runJSON(t, c.build(c.other...), sc); !bytes.Equal(got, plain) {
				t.Errorf("%s/%s: Result JSON changes with the other kinds' options", c.name, sc.Name)
			}
		}
	}
}

package aethereal

import (
	"math/rand"
	"reflect"
	"testing"
)

// This file keeps the two slot loops ReserveSpread replaced, verbatim
// but for the receiver, as references: the TDM stream runner's, which
// fails a stream the moment one booking finds no slot, and the TDM
// pattern runner's, which admits a flow that got at least one slot.

// streamLoopRef is one stream's iteration of the stream runner's loop.
// full reports the runner's "slot table full" failure.
func streamLoopRef(t *SlotTable, in, out, slotsNeeded int) (slots []int, full bool, err error) {
	p := t.p
	stride := p.Slots / slotsNeeded
	for k := 0; k < slotsNeeded; k++ {
		booked := false
		for probe := 0; probe < p.Slots; probe++ {
			s := (k*stride + probe) % p.Slots
			if t.Entry(s, out) != NoInput {
				continue
			}
			if t.InputBusy(s, in) {
				continue
			}
			if err := t.Reserve(s, in, out); err != nil {
				return slots, false, err
			}
			slots = append(slots, s)
			booked = true
			break
		}
		if !booked {
			return slots, true, nil
		}
	}
	return slots, false, nil
}

// patternLoopRef is one flow's iteration of the pattern runner's loop,
// recording the booked slots in order where the runner set a mask.
func patternLoopRef(t *SlotTable, in, out, slotsNeeded int) (slots []int, err error) {
	ap := t.p
	stride := ap.Slots / slotsNeeded
	if stride < 1 {
		stride = 1
	}
	for k := 0; k < slotsNeeded; k++ {
		for probe := 0; probe < ap.Slots; probe++ {
			s := (k*stride + probe) % ap.Slots
			if t.Entry(s, out) != NoInput {
				continue
			}
			if t.InputBusy(s, in) {
				continue
			}
			if err := t.Reserve(s, in, out); err != nil {
				return slots, err
			}
			slots = append(slots, s)
			break
		}
	}
	return slots, nil
}

// clone returns a deep copy of the table.
func (t *SlotTable) clone() *SlotTable {
	c := &SlotTable{p: t.p, slots: make([][]int, len(t.slots))}
	for s, row := range t.slots {
		c.slots[s] = append([]int(nil), row...)
	}
	return c
}

// TestReserveSpreadMatchesLoops compares ReserveSpread with both
// reference loops on generated tables: 1–32 slots, 2–6 ports, random
// prior reservations, then a sequence of requests for 1..Slots slots
// between random ports, coinciding input and output included. Against
// the pattern loop it must book the same slots in the same order, fail
// alike and leave the same table; against the stream loop it must book
// the same slots whenever that loop succeeds and fall short of the
// request exactly when that loop reports the table full.
func TestReserveSpreadMatchesLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	whole, short, errs := 0, 0, 0
	for iter := 0; iter < 4000; iter++ {
		p := Params{Ports: 2 + rng.Intn(5), WordBits: 32, Slots: 1 + rng.Intn(32), BEDepth: 1}
		tab := NewSlotTable(p)
		for i := rng.Intn(p.Slots * p.Ports); i > 0; i-- {
			// Refusals (taken output, coinciding ports) are part of the
			// generation; the table stays whatever Reserve allowed.
			_ = tab.Reserve(rng.Intn(p.Slots), rng.Intn(p.Ports), rng.Intn(p.Ports))
		}
		for req := 1 + rng.Intn(6); req > 0; req-- {
			in, out, n := rng.Intn(p.Ports), rng.Intn(p.Ports), 1+rng.Intn(p.Slots)
			pat, str := tab.clone(), tab.clone()
			got, err := tab.ReserveSpread(in, out, n)
			want, wantErr := patternLoopRef(pat, in, out, n)
			if !reflect.DeepEqual(got, want) || (err == nil) != (wantErr == nil) ||
				!reflect.DeepEqual(tab.slots, pat.slots) {
				t.Fatalf("iter %d %+v: ReserveSpread(%d,%d,%d) = %v, %v; pattern loop %v, %v",
					iter, p, in, out, n, got, err, want, wantErr)
			}
			sslots, full, sErr := streamLoopRef(str, in, out, n)
			switch {
			case (err == nil) != (sErr == nil):
				t.Fatalf("iter %d: error %v, stream loop error %v", iter, err, sErr)
			case err != nil:
				errs++
			case full != (len(got) < n):
				t.Fatalf("iter %d: booked %d of %d, stream loop full=%v", iter, len(got), n, full)
			case full:
				short++
			case !reflect.DeepEqual(got, sslots):
				t.Fatalf("iter %d: booked %v, stream loop %v", iter, got, sslots)
			default:
				whole++
			}
		}
	}
	// The generator must reach every outcome, or the comparison is vacuous.
	if whole == 0 || short == 0 || errs == 0 {
		t.Fatalf("generated %d whole bookings, %d short ones and %d refusals; want all three",
			whole, short, errs)
	}
}

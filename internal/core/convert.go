package core

import (
	"fmt"

	"repro/internal/bitvec"
	"repro/internal/power"
	"repro/internal/stdcell"
)

// FlowParams configure the window-counter flow control of Section 5.2.
type FlowParams struct {
	// UseAck enables the acknowledgement wire. Without it the source
	// streams freely and the destination is assumed to always consume
	// (the paper's base case before the ack extension).
	UseAck bool
	// WC is the source's window: the maximum number of unacknowledged
	// packets in flight.
	WC int
	// X is the acknowledgement batch: the destination raises the ack wire
	// for one cycle per X consumed packets. The paper requires X ≤ WC.
	X int
}

// DefaultFlow returns a blocking configuration with an 8-packet window
// acknowledged every 4 packets.
func DefaultFlow() FlowParams { return FlowParams{UseAck: true, WC: 8, X: 4} }

// Validate checks the flow-control parameters.
func (f FlowParams) Validate() error {
	if !f.UseAck {
		return nil
	}
	if f.WC < 1 {
		return fmt.Errorf("core: window counter %d < 1", f.WC)
	}
	if f.X < 1 || f.X > f.WC {
		return fmt.Errorf("core: ack batch X=%d outside 1..WC=%d", f.X, f.WC)
	}
	return nil
}

// TxConverter is the transmit half of the data converter (Fig. 5): it
// accepts 20-bit words from the 16-bit tile interface and serializes them
// onto one 4-bit lane, header nibble first, under window-counter flow
// control. Its output register feeds a tile-port input lane of the router.
type TxConverter struct {
	flow FlowParams

	// Out is the registered lane value the router's tile input lane reads.
	Out uint8

	// enabled gates the converter: a disabled converter holds its lane
	// idle and (with clock gating) draws no clock energy. SetEnabled
	// writes it and reports it to asm, the assembly whose tile lane
	// this converter feeds, if any.
	enabled bool
	lane    uint8
	asm     *Assembly

	ackIn *bool // from the router's AckOut of this input lane

	// committed state
	shift      uint32 // remaining nibbles, top nibble next
	cnt        int    // nibbles still to emit (incl. the one in shift top)
	wc         int    // window counter
	pending    Word   // accepted word waiting for serialization
	hasPending bool
	staged     Word // word pushed this cycle, committed into pending
	hasStaged  bool

	// next state
	nextShift uint32
	nextCnt   int
	nextOut   uint8
	willLoad  bool
	ackSeen   bool

	// statistics
	sent         uint64
	stalledCount uint64
	wcViolations uint64

	meter *power.Meter
	wake  func()
}

// NewTxConverter returns an idle transmit converter.
func NewTxConverter(p Params, flow FlowParams) *TxConverter {
	return &newTxConverters(1, p, flow)[0]
}

// newTxConverters returns n idle transmit converters from one
// allocation.
func newTxConverters(n int, p Params, flow FlowParams) []TxConverter {
	mustFig6Format(p)
	if err := flow.Validate(); err != nil {
		panic(err)
	}
	wc := flow.WC
	if !flow.UseAck {
		wc = 0
	}
	ts := make([]TxConverter, n)
	for i := range ts {
		ts[i] = TxConverter{flow: flow, wc: wc}
	}
	return ts
}

// ConnectAck wires the acknowledgement input (the router's AckOut register
// of the lane this converter feeds).
func (t *TxConverter) ConnectAck(src *bool) { t.ackIn = src }

// BindMeter attaches a power meter for the converter's activity.
func (t *TxConverter) BindMeter(m *power.Meter) { t.meter = m }

// SetEnabled gates the converter: a disabled converter holds its lane
// idle, refuses Push and (with clock gating) draws no clock energy.
// Call it between cycles, as the CCN and the lane book do.
func (t *TxConverter) SetEnabled(on bool) {
	t.enabled = on
	if t.asm != nil {
		t.asm.setEnabled(&t.asm.txOn, t.lane, on)
	}
}

// Enabled reports whether the converter is enabled.
func (t *TxConverter) Enabled() bool { return t.enabled }

// Ready reports whether a new word can be pushed this cycle.
func (t *TxConverter) Ready() bool { return !t.hasStaged && !t.hasPending }

// Push hands a word to the converter. It returns false (and drops nothing —
// the caller keeps the word) if the converter cannot accept it this cycle.
// Call during the Eval phase.
func (t *TxConverter) Push(w Word) bool {
	if !t.enabled || !t.Ready() {
		return false
	}
	t.staged, t.hasStaged = w, true
	if t.wake != nil {
		t.wake()
	}
	return true
}

// SetWake implements sim.Waker: a pushed word re-activates a skipped
// converter in the cycle it is staged.
func (t *TxConverter) SetWake(fn func()) { t.wake = fn }

// Quiescent implements sim.Quiescer: true only when the converter is at
// rest and no acknowledgement is arriving (an ack replenishes the
// window counter, which is a state change).
func (t *TxConverter) Quiescent() bool {
	return t.atRest() && !(t.ackIn != nil && *t.ackIn)
}

// atRest reports whether the converter holds no word in any stage and
// its output lane is idle.
func (t *TxConverter) atRest() bool {
	return !t.hasStaged && !t.hasPending && t.cnt == 0 && t.shift == 0 && t.Out == 0
}

// IdleWindow implements sim.Quiescer: an idle converter accrues no
// per-cycle state, so idle replay is a no-op.
func (t *TxConverter) IdleWindow(n uint64) {}

// Window returns the current window counter value.
func (t *TxConverter) Window() int { return t.wc }

// Sent returns the number of fully serialized words.
func (t *TxConverter) Sent() uint64 { return t.sent }

// Stalled returns the number of cycles a pending word waited on the window.
func (t *TxConverter) Stalled() uint64 { return t.stalledCount }

// WindowViolations counts acknowledgements that would have pushed the
// window counter above WC — a protocol violation (more acks than packets).
func (t *TxConverter) WindowViolations() uint64 { return t.wcViolations }

// Eval implements sim.Clocked.
func (t *TxConverter) Eval() {
	t.ackSeen = t.ackIn != nil && *t.ackIn
	t.willLoad = false

	const topShift = 16 // top nibble of the 20-bit packet
	mask := uint32(1)<<20 - 1

	switch {
	case t.cnt > 1:
		t.nextOut = uint8(t.shift >> topShift & 0xF)
		t.nextShift = t.shift << 4 & mask
		t.nextCnt = t.cnt - 1
	case t.cnt == 1:
		t.nextOut = uint8(t.shift >> topShift & 0xF)
		if t.canLoad() {
			t.nextShift = t.pending.Pack()
			t.nextCnt = fig6Nibbles
			t.willLoad = true
		} else {
			t.nextShift = 0
			t.nextCnt = 0
		}
	default: // idle
		t.nextOut = 0
		if t.canLoad() {
			t.nextShift = t.pending.Pack()
			t.nextCnt = fig6Nibbles
			t.willLoad = true
		} else {
			t.nextShift = 0
			t.nextCnt = 0
		}
	}
	if t.hasPending && !t.willLoad && t.cnt <= 1 {
		t.stalledCount++
	}
}

func (t *TxConverter) canLoad() bool {
	if !t.enabled || !t.hasPending {
		return false
	}
	if t.flow.UseAck {
		// The ack arriving this very cycle replenishes the window in the
		// same clock edge that could start a new packet.
		w := t.wc
		if t.ackSeen {
			w += t.flow.X
		}
		return w > 0
	}
	return true
}

// Commit implements sim.Clocked.
func (t *TxConverter) Commit() {
	if t.meter != nil {
		flips := bitvec.Hamming32(t.shift, t.nextShift)
		outFlips := bitvec.Hamming16(uint16(t.Out), uint16(t.nextOut))
		t.meter.AddToggles(power.ToggleReg, flips+outFlips)
		t.meter.AddToggles(power.ToggleGate, outFlips) // short wire into the crossbar
	}

	if t.flow.UseAck {
		w := t.wc
		if t.ackSeen {
			w += t.flow.X
		}
		if t.willLoad {
			w--
		}
		if w > t.flow.WC {
			t.wcViolations++
			w = t.flow.WC
		}
		t.wc = w
	}
	if t.willLoad {
		t.hasPending = false
		t.sent++
	}
	t.shift = t.nextShift
	t.cnt = t.nextCnt
	t.Out = t.nextOut
	if !t.hasPending && t.hasStaged {
		t.pending, t.hasPending = t.staged, true
		t.hasStaged = false
	}
}

// The Fig. 6 format that mustFig6Format admits, as the converters use
// it: a packet crosses the lane in five nibble transfers, a lane value
// keeps four bits, and TxRegBits and RxRegBits of the format are 37 and
// 32 registers.
const (
	fig6Nibbles   = 5
	fig6LaneMask  = 0xF
	fig6TxRegBits = 37
	fig6RxRegBits = 32
)

// mustFig6Format restricts the cycle-accurate converters to the paper's
// wire format of Fig. 6 (4-bit lanes carrying a 4-bit header and a 16-bit
// word in five transfers). Other geometries remain available to the
// structural area/frequency sweeps, which do not serialize data.
func mustFig6Format(p Params) {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	if p.LaneWidth != 4 || p.TileWidth != 16 {
		panic(fmt.Sprintf(
			"core: data converter models the Fig. 6 format (4-bit lanes, 16-bit words); got %d/%d",
			p.LaneWidth, p.TileWidth))
	}
}

// TxRegBits returns the transmit converter's sequential census for the
// area/power model: packet shift register, output register, nibble counter,
// window counter and handshake state.
func TxRegBits(p Params) int {
	return p.PacketBits() + p.LaneWidth + 3 + 8 + 2
}

// ClockFJ returns the clock energy this converter draws per cycle; with
// gating, a disabled converter draws none.
func (t *TxConverter) ClockFJ(lib stdcell.Lib, gated bool) float64 {
	if gated && !t.enabled {
		return 0
	}
	return power.ClockEnergyFor(lib, fig6TxRegBits, 0)
}

// RxConverter is the receive half of the data converter: it watches one
// tile-port output lane of the router, synchronizes on the first nibble
// with the VALID bit, reassembles 20-bit packets and presents words to the
// tile. Consumed words are acknowledged in batches of X over the reverse
// acknowledgement wire.
type RxConverter struct {
	flow FlowParams

	// AckOut is the registered acknowledgement wire towards the network;
	// the router's tile-port ConnectAckIn points here.
	AckOut bool

	// enabled gates the converter like the transmit side, and SetEnabled
	// reports it to asm likewise.
	enabled bool
	lane    uint8
	asm     *Assembly

	in *uint8 // the router's tile-port output lane register

	// committed state
	acc      uint32
	cnt      int
	buf      []Word // destination buffer (tile memory of capacity BufCap)
	bufCap   int
	unacked  int // consumed words not yet acknowledged
	ackHigh  int // remaining cycles to hold the ack wire high
	received uint64
	dropped  uint64

	// next state
	nextAcc   uint32
	nextCnt   int
	complete  Word // word reassembled this cycle, valid when completed
	completed bool
	popN      int // words consumed by the tile this cycle (staged)

	meter *power.Meter
	wake  func()
}

// NewRxConverter returns an idle receive converter whose destination buffer
// holds bufCap words. For overflow-free operation the paper's window
// mechanism requires WC ≤ bufCap.
func NewRxConverter(p Params, flow FlowParams, bufCap int) *RxConverter {
	return &newRxConverters(1, p, flow, bufCap)[0]
}

// newRxConverters returns n idle receive converters from one
// allocation.
func newRxConverters(n int, p Params, flow FlowParams, bufCap int) []RxConverter {
	mustFig6Format(p)
	if err := flow.Validate(); err != nil {
		panic(err)
	}
	if bufCap < 1 {
		panic("core: destination buffer must hold at least one word")
	}
	rs := make([]RxConverter, n)
	for i := range rs {
		rs[i] = RxConverter{flow: flow, bufCap: bufCap}
	}
	return rs
}

// ConnectIn wires the converter to the router's tile-port output lane.
func (r *RxConverter) ConnectIn(src *uint8) { r.in = src }

// BindMeter attaches a power meter for the converter's activity.
func (r *RxConverter) BindMeter(m *power.Meter) { r.meter = m }

// SetEnabled gates the converter: a disabled converter ignores its lane
// and (with clock gating) draws no clock energy; words it already
// buffers can still be popped. Call it between cycles.
func (r *RxConverter) SetEnabled(on bool) {
	r.enabled = on
	if r.asm != nil {
		r.asm.setEnabled(&r.asm.rxOn, r.lane, on)
	}
}

// Enabled reports whether the converter is enabled.
func (r *RxConverter) Enabled() bool { return r.enabled }

// Available returns the number of words waiting in the destination buffer.
func (r *RxConverter) Available() int { return len(r.buf) - r.popN }

// Peek returns the oldest buffered word without consuming it.
func (r *RxConverter) Peek() (Word, bool) {
	if r.popN < len(r.buf) {
		return r.buf[r.popN], true
	}
	return Word{}, false
}

// Pop consumes the oldest buffered word. Call during the Eval phase; the
// consumption (and its acknowledgement credit) commits at the clock edge.
func (r *RxConverter) Pop() (Word, bool) {
	w, ok := r.Peek()
	if ok {
		r.popN++
		if r.wake != nil {
			r.wake()
		}
	}
	return w, ok
}

// SetWake implements sim.Waker: a consumed word re-activates a skipped
// converter so the buffer trim and acknowledgement credit commit on time.
func (r *RxConverter) SetWake(fn func()) { r.wake = fn }

// Quiescent implements sim.Quiescer: true only when the converter is at
// rest and, if enabled, no valid nibble is arriving on the watched lane.
// Words parked in the destination buffer do not count as activity — they
// change nothing until the tile pops them, and Pop wakes the converter.
func (r *RxConverter) Quiescent() bool {
	if !r.atRest() {
		return false
	}
	if r.enabled && r.in != nil {
		nib := *r.in & fig6LaneMask
		if Header(nib)&HdrValid != 0 {
			return false
		}
	}
	return true
}

// atRest reports whether no packet is being reassembled, no pop is
// staged and the acknowledgement machinery is at rest.
func (r *RxConverter) atRest() bool {
	return r.cnt == 0 && r.acc == 0 && r.popN == 0 && r.ackHigh == 0 && !r.AckOut
}

// IdleWindow implements sim.Quiescer: an idle receive converter accrues
// no per-cycle state, so idle replay is a no-op.
func (r *RxConverter) IdleWindow(n uint64) {}

// Received returns the number of completely reassembled words.
func (r *RxConverter) Received() uint64 { return r.received }

// Dropped returns the number of words lost to destination buffer overflow —
// zero whenever the window invariant WC ≤ bufCap holds.
func (r *RxConverter) Dropped() uint64 { return r.dropped }

// Eval implements sim.Clocked.
func (r *RxConverter) Eval() {
	r.completed = false
	var nib uint8
	if r.in != nil {
		nib = *r.in & fig6LaneMask
	}
	if !r.enabled {
		r.nextAcc, r.nextCnt = 0, 0
		return
	}
	if r.cnt == 0 {
		if Header(nib)&HdrValid != 0 {
			r.nextAcc = uint32(nib)
			r.nextCnt = 1
		} else {
			r.nextAcc, r.nextCnt = 0, 0
		}
		return
	}
	r.nextAcc = r.acc<<4 | uint32(nib)
	r.nextCnt = r.cnt + 1
	if r.nextCnt == fig6Nibbles {
		r.complete, r.completed = Unpack(r.nextAcc), true
		r.nextAcc, r.nextCnt = 0, 0
	}
}

// Commit implements sim.Clocked.
func (r *RxConverter) Commit() {
	if r.meter != nil {
		flips := bitvec.Hamming32(r.acc, r.nextAcc)
		if r.ackHigh > 0 != r.AckOut {
			flips++
		}
		r.meter.AddToggles(power.ToggleReg, flips)
	}

	r.acc = r.nextAcc
	r.cnt = r.nextCnt

	if r.popN > 0 {
		// Move the unconsumed words to the front: the backing array
		// keeps its capacity, so the buffer stops allocating once it
		// has grown to its high-water mark.
		r.buf = append(r.buf[:0], r.buf[r.popN:]...)
		if r.flow.UseAck {
			r.unacked += r.popN
		}
		r.popN = 0
	}
	if r.completed {
		r.received++
		if len(r.buf) >= r.bufCap {
			r.dropped++
		} else {
			r.buf = append(r.buf, r.complete)
		}
		r.completed = false
	}
	// Acknowledge every X consumed packets: one cycle high per batch.
	if r.ackHigh > 0 {
		r.ackHigh--
	}
	for r.flow.UseAck && r.unacked >= r.flow.X {
		r.unacked -= r.flow.X
		r.ackHigh++
	}
	r.AckOut = r.ackHigh > 0
}

// RxRegBits returns the receive converter's sequential census: packet
// accumulator, nibble counter, ack batching counter and the ack output
// register. The destination buffer is tile memory and is not part of the
// router's area or power (the paper's router has no buffering).
func RxRegBits(p Params) int {
	return p.PacketBits() + 3 + 8 + 1
}

// ClockFJ returns the clock energy this converter draws per cycle.
func (r *RxConverter) ClockFJ(lib stdcell.Lib, gated bool) float64 {
	if gated && !r.enabled {
		return 0
	}
	return power.ClockEnergyFor(lib, fig6RxRegBits, 0)
}

// ConverterRegBits returns the census of a full tile-interface data
// converter: one transmit and one receive converter per lane.
func ConverterRegBits(p Params) int {
	return p.LanesPerPort * (TxRegBits(p) + RxRegBits(p))
}

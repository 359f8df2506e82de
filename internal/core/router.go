package core

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"repro/internal/power"
	"repro/internal/stdcell"
)

// Router is the cycle-accurate model of the reconfigurable circuit-switched
// router (Fig. 4): a fully connected crossbar from the foreign input lanes
// to the registered output lanes, a configuration memory, and the reverse
// acknowledgement path. There is no buffering and no arbitration — an
// established physical channel can always be used (Section 4).
//
// Wiring model: inputs are pointers into the *registered* output storage of
// the upstream component (a neighbouring Router's Out array or a
// TxConverter's output register). Because every output is registered and
// all components commit together, reading through these pointers during
// Eval observes pre-clock-edge values regardless of evaluation order.
type Router struct {
	// P are the design-time parameters.
	P Params

	// Out holds the registered output lane values (LaneWidth bits each),
	// indexed by global lane. Downstream components point into it.
	Out []uint8
	// AckOut holds the registered reverse acknowledgements leaving the
	// router towards the upstream source, indexed by global *input* lane.
	AckOut []bool

	// in[g] points at the data source of input lane g (upstream router
	// output or local TxConverter register); nil reads as idle (0).
	in []*uint8
	// ackIn[g] points at the acknowledgement arriving alongside output
	// lane g from downstream; nil reads as false.
	ackIn []*bool

	cfg *Config
	// cfgPending holds configuration commands staged via the
	// configuration interface, applied at the next clock edge.
	cfgPending []ConfigCmd
	// pairs lists the configured output lanes with their selected input
	// lanes, in output order. It is rebuilt where staged configuration
	// writes are applied, the only place the memory changes, so Eval,
	// Quiescent and ClockFJ never visit a disabled lane.
	pairs []lanePair

	// The lane registers as byte images, each padded to whole 8-lane
	// words, so Commit compares and counts eight lanes per uint64. out
	// is the backing array of Out; ack mirrors AckOut as 0/1 bytes, and
	// AckOut is written only where it changes. nextOut and nextAck hold
	// the next state Eval computes. tile has 0xFF for each tile-port
	// lane, whose output register drives the short local connection to
	// a converter rather than an inter-router link. Padding bytes and
	// the next state of unconfigured lanes stay zero.
	out, nextOut, ack, nextAck, tile []uint8

	// mask keeps a lane value's LaneWidth bits.
	mask uint8

	// tileAck has bit l set while AckOut of tile input lane l is high:
	// an Assembly reads its transmit converters' ack wires from it.
	tileAck uint64

	// meter, when non-nil, receives this router's switching activity.
	meter *power.Meter

	// activity tracking (sim.Quiescer): a router with no configured lanes,
	// no staged configuration writes and all-idle output registers is a
	// guaranteed no-op — exactly the lanes the paper's clock gating powers
	// down. A configured router is a no-op too whenever every configured
	// input and acknowledgement wire currently shows its idle value; the
	// per-cycle poll re-checks the wires, so traffic lighting up an input
	// is caught on the cycle it appears.
	outDirty bool
	wake     func()
}

// lanePair is one configured crossbar connection: output lane out
// latches input lane in.
type lanePair struct{ out, in int32 }

// NewRouter returns an unconfigured router with all lanes idle.
func NewRouter(p Params) *Router { return &newRouters(1, p)[0] }

// newRouters returns n unconfigured routers with all lanes idle, built
// from one allocation per kind of state: the routers, their lane
// images, AckOut, in and ackIn tables and their configuration memories.
// Each router's slices are carved with cap == len, so no append can
// spill into a neighbour's state.
func newRouters(n int, p Params) []Router {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	lanes := p.TotalLanes()
	span := (lanes + 7) &^ 7
	rs := make([]Router, n)
	img := make([]uint8, n*5*span) // the five images of every router
	ackOut := make([]bool, n*lanes)
	in := make([]*uint8, n*lanes)
	ackIn := make([]*bool, n*lanes)
	cfgs := newConfigs(n, p)
	for i := range rs {
		im := carve(img, i, 5*span)
		rs[i] = Router{
			P:       p,
			Out:     im[:lanes:lanes],
			AckOut:  carve(ackOut, i, lanes),
			in:      carve(in, i, lanes),
			ackIn:   carve(ackIn, i, lanes),
			cfg:     &cfgs[i],
			out:     carve(im, 0, span),
			nextOut: carve(im, 1, span),
			ack:     carve(im, 2, span),
			nextAck: carve(im, 3, span),
			tile:    carve(im, 4, span),
			mask:    uint8(1<<uint(p.LaneWidth) - 1),
		}
		for g := 0; g < p.LanesPerPort; g++ {
			rs[i].tile[g] = 0xFF
		}
	}
	return rs
}

// carve returns the i-th of the consecutive k-element blocks of a slab,
// with cap == len.
func carve[T any](slab []T, i, k int) []T { return slab[i*k : (i+1)*k : (i+1)*k] }

// ConnectIn wires input lane g to read data from src (a registered output
// of the upstream component).
func (r *Router) ConnectIn(g int, src *uint8) { r.in[g] = src }

// ConnectAckIn wires the reverse acknowledgement of output lane g to read
// from src (the upstream-facing ack register of the downstream component).
func (r *Router) ConnectAckIn(g int, src *bool) { r.ackIn[g] = src }

// Config returns the router's live configuration memory. Write it
// through PushConfig, Configure or Deactivate: the datapath reads the
// configured lanes from a list rebuilt when staged writes are applied.
func (r *Router) Config() *Config { return r.cfg }

// Configure directly establishes a circuit (test and CCN fast path). The
// change is staged like a hardware configuration write and takes effect at
// the next clock edge.
func (r *Router) Configure(c Circuit) error {
	cmd, err := c.Cmd(r.P)
	if err != nil {
		return err
	}
	r.PushConfig(cmd)
	return nil
}

// Deactivate stages the deactivation of an output lane.
func (r *Router) Deactivate(out LaneID) {
	r.PushConfig(ConfigCmd{Out: r.P.Global(out), Sel: LaneSel{}})
}

// PushConfig stages a configuration command, as the BE-network
// configuration interface does; it takes effect at the next clock edge.
func (r *Router) PushConfig(cmd ConfigCmd) {
	if cmd.Out < 0 || cmd.Out >= r.P.TotalLanes() {
		panic(fmt.Sprintf("core: config for lane %d out of range", cmd.Out))
	}
	r.cfgPending = append(r.cfgPending, cmd)
	if r.wake != nil {
		r.wake()
	}
}

// SetWake implements sim.Waker: staged configuration writes re-activate a
// skipped router in the same cycle they are pushed.
func (r *Router) SetWake(fn func()) { r.wake = fn }

// Quiescent implements sim.Quiescer. It is true only when Eval+Commit
// would be a complete no-op: no configuration write is staged, the
// output registers already hold their idle values, and every configured
// output would latch the same idle value again — its selected input
// lane and its acknowledgement wire both idle. (With no circuits
// configured the crossbar ignores its inputs and the scan is empty.)
// An all-idle cycle records zero toggles, so skipping it is power-exact.
func (r *Router) Quiescent() bool {
	if len(r.cfgPending) != 0 || r.outDirty {
		return false
	}
	for _, pr := range r.pairs {
		if r.readIn(int(pr.in)) != 0 {
			return false
		}
		if a := r.ackIn[pr.out]; a != nil && *a {
			return false
		}
	}
	return true
}

// IdleWindow implements sim.Quiescer: a quiescent router records zero
// toggles and its meter cycle accounting is driven externally, so idle
// replay is a no-op.
func (r *Router) IdleWindow(n uint64) {}

// Unconfigured reports whether no circuit is configured and none is
// staged — the state in which the crossbar provably ignores every input.
func (r *Router) Unconfigured() bool {
	return len(r.pairs) == 0 && len(r.cfgPending) == 0
}

// BindMeter attaches a power meter for the router's switching activity.
// Clock energy, gated or not, is charged by whoever ticks the meter; an
// Assembly does so through ClockFJ.
func (r *Router) BindMeter(m *power.Meter) { r.meter = m }

// readIn returns the current value of input lane g (0 when unconnected).
func (r *Router) readIn(g int) uint8 {
	if src := r.in[g]; src != nil {
		return *src & r.mask
	}
	return 0
}

// Eval implements sim.Clocked: it computes the crossbar outputs and the
// reverse acknowledgement routing from the committed inputs. Only
// configured lanes are visited; the next state of the others stays 0.
func (r *Router) Eval() {
	clear(r.nextAck)
	for _, pr := range r.pairs {
		r.nextOut[pr.out] = r.readIn(int(pr.in))
		// The acknowledgement arriving with output lane out is routed
		// back to the circuit's input lane. With multicast (several
		// outputs selecting one input) acknowledgements are ORed; the
		// window counter mechanism is defined for unicast circuits.
		if a := r.ackIn[pr.out]; a != nil && *a {
			r.nextAck[pr.in] = 1
		}
	}
}

// Commit implements sim.Clocked: eight lanes per word, it counts this
// cycle's switching activity and latches the outputs; it then charges
// the activity to the meter and applies staged configuration writes.
//
// Activity covers output register and link toggles, crossbar
// multiplexer activity and acknowledgement wires. Clock energy is not
// charged here: the assembly ticks the meter once per cycle (see
// Assembly.Commit and ClockFJ).
func (r *Router) Commit() {
	regFlips, linkFlips, gateFlips, ackFlips := 0, 0, 0, 0
	out, nextOut, ack, nextAck := r.out, r.nextOut, r.ack, r.nextAck
	var live uint64
	for i := 0; i < len(out); i += 8 {
		next := binary.LittleEndian.Uint64(nextOut[i:])
		nextA := binary.LittleEndian.Uint64(nextAck[i:])
		live |= next | nextA
		if d := binary.LittleEndian.Uint64(out[i:]) ^ next; d != 0 {
			n := bits.OnesCount64(d)
			tile := binary.LittleEndian.Uint64(r.tile[i:])
			regFlips += n
			// The output register drives the inter-router link; the
			// tile port drives the short local connection to the
			// converter. Data toggles also ripple through about two 2:1
			// stages of the output's multiplexer tree (the selected
			// path; unselected subtrees are logically shielded).
			gateFlips += 2*n + bits.OnesCount64(d&tile)
			linkFlips += bits.OnesCount64(d &^ tile)
		}
		// Each ack byte is 0 or 1, so a changed lane sets bit 0 of its
		// byte.
		for d := binary.LittleEndian.Uint64(ack[i:]) ^ nextA; d != 0; d &= d - 1 {
			g := i + bits.TrailingZeros64(d)/8
			r.AckOut[g] = nextAck[g] != 0
			if g < r.P.LanesPerPort {
				r.tileAck ^= 1 << uint(g)
			}
			ackFlips++
		}
	}
	copy(out, nextOut)
	copy(ack, nextAck)
	r.outDirty = live != 0
	if r.meter != nil {
		r.meter.AddToggles(power.ToggleReg, regFlips+ackFlips)
		r.meter.AddToggles(power.ToggleLink, linkFlips+ackFlips)
		r.meter.AddToggles(power.ToggleGate, gateFlips)
	}

	if len(r.cfgPending) > 0 {
		if r.meter != nil {
			r.meter.AddToggles(power.ToggleReg, r.cfg.writeToggles(r.cfgPending))
		}
		for _, cmd := range r.cfgPending {
			r.cfg.Apply(cmd)
		}
		r.cfgPending = r.cfgPending[:0]
		if k := r.cfg.EnabledLanes(); cap(r.pairs) < k {
			r.pairs = make([]lanePair, 0, k)
		}
		r.pairs = r.pairs[:0]
		for g, in := range r.cfg.src {
			if in != noInput {
				r.pairs = append(r.pairs, lanePair{out: int32(g), in: in})
			}
		}
		// Eval writes configured lanes only: a lane just disabled must
		// latch 0 from the next edge on.
		clear(r.nextOut)
	}
}

// RouterRegBits returns the router's sequential cell census (excluding
// converters): per lane a LaneWidth-bit output register and a 1-bit
// acknowledgement register, plus the configuration memory.
func RouterRegBits(p Params) int {
	return p.TotalLanes()*(p.LaneWidth+1) + p.ConfigBits()
}

// ClockFJ returns the clock energy the router's registers draw this cycle.
// Ungated, every register is clocked. Gated, only the configuration memory
// and the registers of enabled lanes (output register plus the circuit's
// ack register) are clocked — the clock-gating scheme of Section 7.3 that
// uses "the configuration information of the router to switch off the
// unused lanes".
func (r *Router) ClockFJ(lib stdcell.Lib, gated bool) float64 {
	if !gated {
		return power.ClockEnergyFor(lib, RouterRegBits(r.P), 0)
	}
	// The configuration memory is always live.
	active := r.P.ConfigBits() + len(r.pairs)*(r.P.LaneWidth+1)
	return power.ClockEnergyFor(lib, active, 0)
}

package packetsw

import (
	"fmt"

	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/power"
	"repro/internal/sim"
)

// Router is the cycle-accurate virtual-channel wormhole router. Unlike the
// circuit-switched router it buffers flits per input VC, computes a route
// per packet and arbitrates for the switch per flit, time multiplexing
// concurrent streams onto shared output ports.
type Router struct {
	// P are the design parameters.
	P Params

	// Out holds the registered output flit per port; a downstream router
	// or the tile sink reads it. An Invalid kind means no flit this cycle.
	Out []Flit
	// CreditOut holds the registered credit-return pulses towards the
	// upstream router on each port, one per VC: true for one cycle per
	// flit removed from the corresponding input FIFO.
	CreditOut [][]bool

	// Route decides the output port of a packet from its head-flit data.
	Route RouteFunc

	inSrc    []*Flit   // upstream output registers, per port
	creditIn [][]*bool // downstream credit pulses, per output port per VC

	fifos     []ring   // [port*VCs+vc] input buffer
	routed    [][]bool // [port][vc] packet in progress
	routeTo   [][]core.Port
	credits   [][]int // [outPort][vc] downstream buffer slots available
	rrPtr     []int   // per output port, round-robin position over input VCs
	lastGrant []int   // per output port, last granted input VC (-1 none)
	// outOwner locks an (output port, VC) pair to one input VC for the
	// duration of a packet — the wormhole discipline that keeps flits of
	// different packets from interleaving within one virtual channel.
	outOwner [][]int

	// reqs lists, per output port, the input VCs whose head flit routes
	// there, in ascending index order: the switch allocator's requesters
	// this cycle. Each list has room for every other port's VCs.
	reqs [][]int

	// next state
	nextOut    []Flit
	pops       []popOp
	pushes     []pushOp
	injStaged  []Flit
	nextCredit [][]bool

	cycle uint64

	// statistics
	flitsRouted      uint64
	packetsEjected   uint64
	latencySum       uint64
	dropped          uint64
	creditViolations uint64
	ejected          []Flit

	// power
	meter       *power.Meter
	lastWritten [][]uint32 // last value written per FIFO, for write toggles
	lastRead    [][]uint32 // last value read per FIFO, for read-path toggles

	// activity tracking (sim.Quiescer): buffered counts flits across all
	// input FIFOs and outActive records whether the last commit left any
	// output or credit register driven, so the idle poll only has to scan
	// the external input and credit wires.
	buffered  int
	outActive bool
	wake      func()
}

type popOp struct{ port, vc int }
type pushOp struct {
	port int
	f    Flit
}

// ring is an input VC's flit FIFO: Depth slots allocated with the router,
// so pushes and pops never allocate.
type ring struct {
	buf  []Flit
	head int // slot of the oldest flit
	n    int // flits held
}

func (q *ring) front() *Flit { return &q.buf[q.head] }

func (q *ring) push(f Flit) {
	t := q.head + q.n
	if t >= len(q.buf) {
		t -= len(q.buf)
	}
	q.buf[t] = f
	q.n++
}

func (q *ring) pop() Flit {
	f := q.buf[q.head]
	q.head++
	if q.head == len(q.buf) {
		q.head = 0
	}
	q.n--
	return f
}

// NewRouter returns an idle router using the given routing function.
func NewRouter(p Params, route RouteFunc) *Router {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	if route == nil {
		panic("packetsw: nil route function")
	}
	r := &Router{P: p, Route: route}
	r.Out = make([]Flit, p.Ports)
	r.nextOut = make([]Flit, p.Ports)
	r.inSrc = make([]*Flit, p.Ports)
	r.rrPtr = make([]int, p.Ports)
	r.lastGrant = make([]int, p.Ports)
	for o := range r.lastGrant {
		r.lastGrant[o] = -1
	}
	dim2 := func() [][]bool {
		m := make([][]bool, p.Ports)
		for i := range m {
			m[i] = make([]bool, p.VCs)
		}
		return m
	}
	r.CreditOut = dim2()
	r.nextCredit = dim2()
	r.routed = dim2()
	r.outOwner = make([][]int, p.Ports)
	for o := range r.outOwner {
		r.outOwner[o] = make([]int, p.VCs)
		for v := range r.outOwner[o] {
			r.outOwner[o][v] = -1
		}
	}
	r.creditIn = make([][]*bool, p.Ports)
	r.fifos = make([]ring, p.InputVCs())
	slots := make([]Flit, p.InputVCs()*p.Depth)
	for i := range r.fifos {
		r.fifos[i].buf = slots[i*p.Depth : (i+1)*p.Depth]
	}
	r.reqs = make([][]int, p.Ports)
	for o := range r.reqs {
		r.reqs[o] = make([]int, 0, p.InputVCs()-p.VCs)
	}
	r.routeTo = make([][]core.Port, p.Ports)
	r.credits = make([][]int, p.Ports)
	r.lastWritten = make([][]uint32, p.Ports)
	r.lastRead = make([][]uint32, p.Ports)
	for i := 0; i < p.Ports; i++ {
		r.creditIn[i] = make([]*bool, p.VCs)
		r.routeTo[i] = make([]core.Port, p.VCs)
		r.credits[i] = make([]int, p.VCs)
		r.lastWritten[i] = make([]uint32, p.VCs)
		r.lastRead[i] = make([]uint32, p.VCs)
		for v := 0; v < p.VCs; v++ {
			r.credits[i][v] = p.Depth
		}
	}
	return r
}

// ConnectIn wires input port p to read flits from the upstream output
// register src.
func (r *Router) ConnectIn(p core.Port, src *Flit) { r.inSrc[p] = src }

// ConnectCreditIn wires the credit pulse of output port p, VC v to the
// downstream router's CreditOut register.
func (r *Router) ConnectCreditIn(p core.Port, vc int, src *bool) {
	r.creditIn[p][vc] = src
}

// BindMeter attaches a power meter. The packet-switched router has no
// clock gating: every register and buffer bit is clocked every cycle, the
// source of its large dynamic offset.
func (r *Router) BindMeter(m *power.Meter) { r.meter = m }

// Inject stages a flit into the tile-port input FIFO of the flit's VC,
// returning false if the FIFO has no room (the tile must retry). Call
// during Eval.
func (r *Router) Inject(f Flit) bool {
	if !f.Valid() {
		return false
	}
	if f.VC < 0 || f.VC >= r.P.VCs {
		panic(fmt.Sprintf("packetsw: inject on VC %d", f.VC))
	}
	staged := 0
	for _, s := range r.injStaged {
		if s.VC == f.VC {
			staged++
		}
	}
	if r.fifo(int(core.Tile), f.VC).n+staged >= r.P.Depth {
		return false
	}
	f.InjectCycle = r.cycle
	r.injStaged = append(r.injStaged, f)
	if r.wake != nil {
		r.wake()
	}
	return true
}

// SetWake implements sim.Waker: an injected flit re-activates a skipped
// router in the cycle it is staged, so it enters the tile FIFO at the same
// clock edge as under the naive kernel.
func (r *Router) SetWake(fn func()) { r.wake = fn }

// Quiescent implements sim.Quiescer: the router is skippable only when its
// FIFOs and injection stage are empty, its output and credit registers are
// idle, and no upstream flit or downstream credit pulse is arriving. A
// wormhole route held open across an idle gap (routed/outOwner state)
// needs no per-cycle work, so it does not count as activity.
func (r *Router) Quiescent() bool {
	if r.buffered != 0 || len(r.injStaged) != 0 || r.outActive {
		return false
	}
	for port := 0; port < r.P.Ports; port++ {
		if r.inSrc[port] != nil && r.inSrc[port].Valid() {
			return false
		}
		for v := 0; v < r.P.VCs; v++ {
			if r.creditIn[port][v] != nil && *r.creditIn[port][v] {
				return false
			}
		}
	}
	return true
}

// IdleTick implements sim.IdleTicker: a skipped cycle still advances the
// router's cycle counter (flit timestamps reference it) and charges the
// ungated clock network — the packet-switched router has no clock gating,
// the source of its large dynamic power offset.
func (r *Router) IdleTick() { r.IdleWindow(1) }

// IdleWindow implements sim.IdleWindower: n idle cycles advance the cycle
// counter and charge n ungated clock ticks in one O(1) meter extension,
// so the event kernel can fast-forward idle windows across this router.
func (r *Router) IdleWindow(n uint64) {
	if r.meter != nil {
		r.meter.TickN(n)
	}
	r.cycle += n
}

// EjectedPending returns the number of tile-port flits waiting for Drain —
// the activity an injection/ejection pump must account for in its own
// quiescence decision.
func (r *Router) EjectedPending() int { return len(r.ejected) }

// InputBacklog returns the current occupancy of VC v's input FIFO at
// port p. A feeder deciding whether to present a flit must add any
// flit it presented on the register in the previous cycle (that flit
// is pushed at this cycle's Commit, so it is not yet counted here) and
// compare against Params.Depth — the accounting hardware would get
// from the credit path.
func (r *Router) InputBacklog(p core.Port, vc int) int {
	return r.fifo(int(p), vc).n
}

// InjectReady reports whether VC v of the tile port can accept a flit.
func (r *Router) InjectReady(vc int) bool {
	staged := 0
	for _, s := range r.injStaged {
		if s.VC == vc {
			staged++
		}
	}
	return r.fifo(int(core.Tile), vc).n+staged < r.P.Depth
}

// Drain returns and clears the flits ejected at the tile port since the
// last call.
func (r *Router) Drain() []Flit {
	e := r.ejected
	r.ejected = nil
	return e
}

// FlitsRouted returns the number of flits that traversed the switch.
func (r *Router) FlitsRouted() uint64 { return r.flitsRouted }

// PacketsEjected returns the number of packets delivered at the tile port.
func (r *Router) PacketsEjected() uint64 { return r.packetsEjected }

// AvgLatency returns the mean head-to-eject latency in cycles of ejected
// packets, or 0 if none were delivered.
func (r *Router) AvgLatency() float64 {
	if r.packetsEjected == 0 {
		return 0
	}
	return float64(r.latencySum) / float64(r.packetsEjected)
}

// Dropped returns flits lost to input-FIFO overflow — zero while the
// credit protocol is intact.
func (r *Router) Dropped() uint64 { return r.dropped }

// CreditViolations returns credit returns beyond the FIFO depth — zero
// while the protocol is intact.
func (r *Router) CreditViolations() uint64 { return r.creditViolations }

// Cycle returns the router's elapsed clock cycles.
func (r *Router) Cycle() uint64 { return r.cycle }

// fifo returns the input FIFO of VC v at port p.
func (r *Router) fifo(p, v int) *ring { return &r.fifos[p*r.P.VCs+v] }

// headRoute returns the output port of the packet at the head of FIFO
// (p,v), and whether one exists.
func (r *Router) headRoute(p, v int) (core.Port, bool) {
	q := r.fifo(p, v)
	if q.n == 0 {
		return 0, false
	}
	if h := q.front(); h.Kind.Opens() {
		return r.Route(h.Data), true
	}
	if r.routed[p][v] {
		return r.routeTo[p][v], true
	}
	// A body flit without an open packet is a protocol error.
	panic(fmt.Sprintf("packetsw: body flit at head of idle VC %d.%d", p, v))
}

// Eval implements sim.Clocked: switch allocation, credit bookkeeping and
// input sampling.
func (r *Router) Eval() {
	p := r.P
	r.pops = r.pops[:0]
	r.pushes = r.pushes[:0]

	// Sample incoming flits from upstream output registers.
	for port := 0; port < p.Ports; port++ {
		if r.inSrc[port] == nil {
			continue
		}
		if f := *r.inSrc[port]; f.Valid() {
			r.pushes = append(r.pushes, pushOp{port: port, f: f})
		}
	}

	// Requests: each occupied input VC asks for the one output its head
	// flit routes to, joining that output's list in ascending index
	// order. A head routed back to its own input port, or to no port of
	// this router, never requests, so it waits.
	for out := range r.reqs {
		r.reqs[out] = r.reqs[out][:0]
	}
	for idx := 0; idx < p.InputVCs(); idx++ {
		port := idx / p.VCs
		dst, ok := r.headRoute(port, idx%p.VCs)
		if !ok || int(dst) == port || dst < 0 || int(dst) >= p.Ports {
			continue
		}
		r.reqs[dst] = append(r.reqs[dst], idx)
	}

	// Switch allocation: per output port, round-robin over its requesters.
	for out := 0; out < p.Ports; out++ {
		r.nextOut[out] = Flit{}
		granted := r.arbitrate(out)
		if granted < 0 {
			continue
		}
		port, vc := granted/p.VCs, granted%p.VCs
		r.nextOut[out] = *r.fifo(port, vc).front()
		r.pops = append(r.pops, popOp{port: port, vc: vc})
		r.rrPtr[out] = granted
		if r.meter != nil && granted != r.lastGrant[out] {
			// Arbitration state and switch select lines switch — the
			// extra control activity of time multiplexing the paper
			// observes when streams collide at an output port.
			r.meter.AddToggles(power.ToggleGate, 8)
			r.meter.AddToggles(power.ToggleReg, 2)
		}
		r.lastGrant[out] = granted
	}
}

// arbitrate returns the requester output port out grants this cycle, or
// -1: the first one after rrPtr[out] in cyclic input-VC order whose head
// may take the output VC and has a credit for it.
func (r *Router) arbitrate(out int) int {
	reqs := r.reqs[out]
	start := 0
	for start < len(reqs) && reqs[start] <= r.rrPtr[out] {
		start++
	}
	for k := range reqs {
		i := start + k
		if i >= len(reqs) {
			i -= len(reqs)
		}
		idx := reqs[i]
		vc := idx % r.P.VCs
		// Wormhole discipline: the output VC is owned by one packet
		// until its tail passes; new packets may only claim a free
		// output VC.
		owner := r.outOwner[out][vc]
		if r.fifos[idx].front().Kind.Opens() {
			if owner != -1 && owner != idx {
				continue
			}
		} else if owner != idx {
			continue
		}
		// Credit check: the tile output is an always-ready sink (the
		// 16-bit tile interface consumes a flit per cycle), and an
		// output with no credit wire attached is a testbench sink.
		if core.Port(out) != core.Tile && r.creditIn[out][vc] != nil &&
			r.credits[out][vc] <= 0 {
			continue
		}
		return idx
	}
	return -1
}

// Commit implements sim.Clocked.
func (r *Router) Commit() {
	p := r.P

	if r.meter != nil {
		r.accountDatapath()
	}

	// Retire granted flits: pop FIFOs, update routes, emit credits.
	for o := range r.nextCredit {
		for v := range r.nextCredit[o] {
			r.nextCredit[o][v] = false
		}
	}
	for _, op := range r.pops {
		f := r.fifo(op.port, op.vc).pop()
		r.buffered--
		r.nextCredit[op.port][op.vc] = true
		r.flitsRouted++
		if f.Kind.Opens() {
			r.routed[op.port][op.vc] = true
			r.routeTo[op.port][op.vc] = r.Route(f.Data)
		}
		if f.Kind.Closes() {
			r.routed[op.port][op.vc] = false
		}
		out := int(r.routeTo[op.port][op.vc])
		if f.Kind.Opens() {
			out = int(r.Route(f.Data))
		}
		// Wormhole ownership of the output VC for this packet.
		switch {
		case f.Kind == Head:
			r.outOwner[out][f.VC] = op.port*p.VCs + op.vc
		case f.Kind.Closes():
			r.outOwner[out][f.VC] = -1
		}
		// Output credit consumption (not for the tile or testbench sinks).
		if core.Port(out) != core.Tile && r.creditIn[out][f.VC] != nil {
			r.credits[out][f.VC]--
		}
	}

	// Credit returns from downstream.
	for o := 0; o < p.Ports; o++ {
		for v := 0; v < p.VCs; v++ {
			if r.creditIn[o][v] != nil && *r.creditIn[o][v] {
				if r.credits[o][v] >= p.Depth {
					r.creditViolations++
				} else {
					r.credits[o][v]++
				}
				if r.meter != nil {
					r.meter.AddToggles(power.ToggleReg, 1)
				}
			}
		}
	}

	// Incoming flits enter the input FIFOs.
	for _, op := range r.pushes {
		r.pushFIFO(op.port, op.f)
	}
	for _, f := range r.injStaged {
		r.pushFIFO(int(core.Tile), f)
	}
	r.injStaged = r.injStaged[:0]

	// Latch outputs; deliver the tile ejection.
	outActive := false
	for o := 0; o < p.Ports; o++ {
		r.Out[o] = r.nextOut[o]
		if r.Out[o].Valid() {
			outActive = true
		}
		for v := 0; v < p.VCs; v++ {
			r.CreditOut[o][v] = r.nextCredit[o][v]
			if r.nextCredit[o][v] {
				outActive = true
			}
		}
	}
	r.outActive = outActive
	if f := r.Out[core.Tile]; f.Valid() {
		r.ejected = append(r.ejected, f)
		if f.Kind.Closes() {
			r.packetsEjected++
			r.latencySum += r.cycle - f.InjectCycle
		}
	}

	if r.meter != nil {
		r.meter.Tick()
	}
	r.cycle++
}

func (r *Router) pushFIFO(port int, f Flit) {
	q := r.fifo(port, f.VC)
	if q.n >= r.P.Depth {
		r.dropped++
		return
	}
	if r.meter != nil {
		w := f.wireBits()
		r.meter.AddToggles(power.ToggleBufBit,
			bitvec.Hamming32(w, r.lastWritten[port][f.VC]))
		r.lastWritten[port][f.VC] = w
	}
	q.push(f)
	r.buffered++
}

var (
	_ sim.Clocked      = (*Router)(nil)
	_ sim.Quiescer     = (*Router)(nil)
	_ sim.IdleTicker   = (*Router)(nil)
	_ sim.IdleWindower = (*Router)(nil)
	_ sim.Waker        = (*Router)(nil)
)

// accountDatapath records output register, link, switch-traversal and FIFO
// read-path toggles for this cycle's flit movements.
func (r *Router) accountDatapath() {
	for o := 0; o < r.P.Ports; o++ {
		d := bitvec.Hamming32(r.Out[o].wireBits(), r.nextOut[o].wireBits())
		if d == 0 {
			continue
		}
		r.meter.AddToggles(power.ToggleReg, d)
		if core.Port(o) == core.Tile {
			r.meter.AddToggles(power.ToggleGate, d)
		} else {
			r.meter.AddToggles(power.ToggleLink, d)
		}
		// Traversal of the switch multiplexer tree.
		r.meter.AddToggles(power.ToggleGate, 2*d)
	}
	for _, op := range r.pops {
		w := r.fifo(op.port, op.vc).front().wireBits()
		r.meter.AddToggles(power.ToggleGate,
			bitvec.Hamming32(w, r.lastRead[op.port][op.vc]))
		r.lastRead[op.port][op.vc] = w
	}
}

package core

import (
	"fmt"
	"math/bits"

	"repro/internal/bitvec"
	"repro/internal/power"
	"repro/internal/stdcell"
)

// This file keeps the circuit-switched step as it was before the
// word-parallel rewrite, as the reference FuzzAssemblyStep compares the
// production Router and Assembly against: refRouter evaluates and commits
// every lane, one byte at a time, and refAssembly steps every converter,
// disabled ones included. The method bodies are the old ones verbatim,
// less the header-nibble counter that fed the reader-less WordsRouted.

// refRouter is the per-lane reference model of Router.
type refRouter struct {
	P Params

	Out    []uint8
	AckOut []bool

	in    []*uint8
	ackIn []*bool

	cfg        *Config
	cfgPending []ConfigCmd

	nextOut []uint8
	nextAck []bool

	mask      uint8
	tileLanes int

	meter *power.Meter

	activeLanes int
	outDirty    bool
	wake        func()
}

func newRefRouter(p Params) *refRouter {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	n := p.TotalLanes()
	return &refRouter{
		P:         p,
		Out:       make([]uint8, n),
		AckOut:    make([]bool, n),
		in:        make([]*uint8, n),
		ackIn:     make([]*bool, n),
		cfg:       NewConfig(p),
		nextOut:   make([]uint8, n),
		nextAck:   make([]bool, n),
		mask:      uint8(1<<uint(p.LaneWidth) - 1),
		tileLanes: p.LanesPerPort,
	}
}

func (r *refRouter) ConnectIn(g int, src *uint8) { r.in[g] = src }

func (r *refRouter) ConnectAckIn(g int, src *bool) { r.ackIn[g] = src }

func (r *refRouter) Deactivate(out LaneID) {
	r.PushConfig(ConfigCmd{Out: r.P.Global(out), Sel: LaneSel{}})
}

func (r *refRouter) PushConfig(cmd ConfigCmd) {
	if cmd.Out < 0 || cmd.Out >= r.P.TotalLanes() {
		panic(fmt.Sprintf("core: config for lane %d out of range", cmd.Out))
	}
	r.cfgPending = append(r.cfgPending, cmd)
	if r.wake != nil {
		r.wake()
	}
}

func (r *refRouter) SetWake(fn func()) { r.wake = fn }

func (r *refRouter) Quiescent() bool {
	if len(r.cfgPending) != 0 || r.outDirty {
		return false
	}
	if r.activeLanes == 0 {
		return true
	}
	for g, in := range r.cfg.src {
		if in == noInput {
			continue
		}
		if r.readIn(int(in)) != 0 {
			return false
		}
		if a := r.ackIn[g]; a != nil && *a {
			return false
		}
	}
	return true
}

func (r *refRouter) Unconfigured() bool {
	return r.activeLanes == 0 && len(r.cfgPending) == 0
}

func (r *refRouter) BindMeter(m *power.Meter) { r.meter = m }

func (r *refRouter) readIn(g int) uint8 {
	if src := r.in[g]; src != nil {
		return *src & r.mask
	}
	return 0
}

func (r *refRouter) Eval() {
	clear(r.nextAck)
	for g, in := range r.cfg.src {
		if in == noInput {
			r.nextOut[g] = 0
			continue
		}
		r.nextOut[g] = r.readIn(int(in))
		// The acknowledgement arriving with output lane g is routed back
		// to the circuit's input lane. With multicast (several outputs
		// selecting one input) acknowledgements are ORed; the window
		// counter mechanism is defined for unicast circuits.
		if a := r.ackIn[g]; a != nil && *a {
			r.nextAck[in] = true
		}
	}
}

func (r *refRouter) Commit() {
	regFlips, linkFlips, gateFlips, ackFlips := 0, 0, 0, 0
	dirty := false
	for g, next := range r.nextOut {
		ack := r.nextAck[g]
		if d := bitvec.Hamming16(uint16(r.Out[g]), uint16(next)); d != 0 {
			regFlips += d
			// The output register drives the inter-router link; the tile
			// port drives the short local connection to the converter.
			if g < r.tileLanes {
				gateFlips += d
			} else {
				linkFlips += d
			}
			// Data toggles ripple through about two 2:1 stages of the
			// output's multiplexer tree (the selected path; unselected
			// subtrees are logically shielded).
			gateFlips += 2 * d
		}
		if r.AckOut[g] != ack {
			ackFlips++
		}
		if next != 0 || ack {
			dirty = true
		}
		r.Out[g] = next
		r.AckOut[g] = ack
	}
	r.outDirty = dirty
	if r.meter != nil {
		r.meter.AddToggles(power.ToggleReg, regFlips+ackFlips)
		r.meter.AddToggles(power.ToggleLink, linkFlips+ackFlips)
		r.meter.AddToggles(power.ToggleGate, gateFlips)
	}

	if len(r.cfgPending) > 0 {
		if r.meter != nil {
			before := configImage(r.cfg)
			for _, cmd := range r.cfgPending {
				r.cfg.Apply(cmd)
			}
			r.meter.AddToggles(power.ToggleReg, imageDistance(before, configImage(r.cfg)))
		} else {
			for _, cmd := range r.cfgPending {
				r.cfg.Apply(cmd)
			}
		}
		r.cfgPending = r.cfgPending[:0]
		r.activeLanes = r.cfg.EnabledLanes()
	}
}

// configImage renders a configuration memory as its hardware bit image,
// ConfigBitsPerLane bits per output lane, lane 0 first: the reference
// prices a batch of writes by the distance between the images before
// and after it.
func configImage(c *Config) []uint64 {
	per := c.p.ConfigBitsPerLane()
	img := make([]uint64, (c.p.ConfigBits()+63)/64)
	for g, s := range c.sels {
		f := selField(c.p, s)
		for b := 0; b < per; b++ {
			if i := g*per + b; f>>uint(b)&1 == 1 {
				img[i/64] |= 1 << uint(i%64)
			}
		}
	}
	return img
}

// imageDistance returns the number of bits in which two images differ.
func imageDistance(a, b []uint64) int {
	n := 0
	for i := range a {
		n += bits.OnesCount64(a[i] ^ b[i])
	}
	return n
}

func (r *refRouter) ClockFJ(lib stdcell.Lib, gated bool) float64 {
	if !gated {
		return power.ClockEnergyFor(lib, RouterRegBits(r.P), 0)
	}
	active := r.P.ConfigBits() // configuration memory is always live
	for _, in := range r.cfg.src {
		if in != noInput {
			active += r.P.LaneWidth + 1
		}
	}
	return power.ClockEnergyFor(lib, active, 0)
}

// refAssembly is the reference model of Assembly: a refRouter plus the
// production converters, every one of which it steps every cycle.
type refAssembly struct {
	R  *refRouter
	Tx []*TxConverter
	Rx []*RxConverter

	p     Params
	meter *power.Meter
	lib   stdcell.Lib
	gated bool

	asleep bool
}

func newRefAssembly(p Params, opt AssemblyOptions) *refAssembly {
	a := &refAssembly{R: newRefRouter(p), p: p}
	for l := 0; l < p.LanesPerPort; l++ {
		tx := NewTxConverter(p, opt.Flow)
		rx := NewRxConverter(p, opt.Flow, opt.RxBufCap)
		g := p.Global(LaneID{Port: Tile, Lane: l})
		a.R.ConnectIn(g, &tx.Out)
		tx.ConnectAck(&a.R.AckOut[g])
		rx.ConnectIn(&a.R.Out[g])
		a.R.ConnectAckIn(g, &rx.AckOut)
		a.Tx = append(a.Tx, tx)
		a.Rx = append(a.Rx, rx)
	}
	return a
}

func (a *refAssembly) BindMeter(m *power.Meter, lib stdcell.Lib, gated bool) {
	a.meter = m
	a.lib = lib
	a.gated = gated
	a.R.BindMeter(m)
	for _, tx := range a.Tx {
		tx.BindMeter(m)
	}
	for _, rx := range a.Rx {
		rx.BindMeter(m)
	}
}

func (a *refAssembly) Eval() {
	a.R.Eval()
	for _, tx := range a.Tx {
		tx.Eval()
	}
	for _, rx := range a.Rx {
		rx.Eval()
	}
}

func (a *refAssembly) Commit() {
	for _, tx := range a.Tx {
		tx.Commit()
	}
	for _, rx := range a.Rx {
		rx.Commit()
	}
	a.R.Commit()
	if a.meter == nil {
		return
	}
	if !a.gated {
		a.meter.Tick()
		return
	}
	a.meter.TickGated(a.gatedClockFJ())
}

func (a *refAssembly) gatedClockFJ() float64 {
	e := a.R.ClockFJ(a.lib, true)
	for _, tx := range a.Tx {
		e += tx.ClockFJ(a.lib, true)
	}
	for _, rx := range a.Rx {
		e += rx.ClockFJ(a.lib, true)
	}
	return e
}

func (a *refAssembly) SetWake(fn func()) {
	wake := func() {
		a.asleep = false
		if fn != nil {
			fn()
		}
	}
	a.R.SetWake(wake)
	for _, tx := range a.Tx {
		tx.SetWake(wake)
	}
	for _, rx := range a.Rx {
		rx.SetWake(wake)
	}
}

func (a *refAssembly) Quiescent() bool {
	if a.asleep {
		return true
	}
	if !a.R.Quiescent() {
		return false
	}
	for _, tx := range a.Tx {
		if !tx.Quiescent() {
			return false
		}
	}
	for _, rx := range a.Rx {
		if !rx.Quiescent() {
			return false
		}
	}
	if a.R.Unconfigured() && !a.anyConverterEnabled() {
		a.asleep = true
	}
	return true
}

func (a *refAssembly) anyConverterEnabled() bool {
	for _, tx := range a.Tx {
		if tx.Enabled() {
			return true
		}
	}
	for _, rx := range a.Rx {
		if rx.Enabled() {
			return true
		}
	}
	return false
}

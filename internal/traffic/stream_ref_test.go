package traffic

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/packetsw"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/stdcell"
)

// This file keeps the packet stream harness RunPacket replaced: one flit
// generator per stream, with its own tile injector or its own feeder
// register on a neighbour port. It is the reference RunPacket must match
// byte for byte wherever the old harness was right: at most one stream
// per input port, the tile stream listed first, and FIFOs of at least
// two flits. (With a neighbour stream listed before a tile stream the
// feeders here write the router's input register during Eval, so a
// router woken late by the tile injector samples the wrong cycle; two
// streams on one neighbour port connect two registers to it and the
// first is lost; at depth 1 the open-loop feeder overflows the FIFO.)

// refPacketGen converts a word source into a flit stream: packets of
// PacketWordsPerPacket words, one data word per period cycles plus the
// head flit when a packet opens.
type refPacketGen struct {
	src    *Source
	vc     int
	dst    core.Port
	period int
	limit  uint64 // emitted-word budget; 0 = unlimited

	cycle     int
	inPacket  int // payload words emitted in the current packet
	queued    []packetsw.Flit
	retrySlot *packetsw.Flit
}

// next returns the flit to emit this cycle, if any.
func (g *refPacketGen) next() (packetsw.Flit, bool) {
	g.cycle++
	if g.retrySlot != nil {
		f := *g.retrySlot
		g.retrySlot = nil
		return f, true
	}
	if len(g.queued) > 0 {
		f := g.queued[0]
		g.queued = g.queued[1:]
		return f, true
	}
	if g.cycle%g.period != 0 {
		return packetsw.Flit{}, false
	}
	// The budget is applied at packet boundaries only.
	if g.limit > 0 && g.inPacket == 0 && g.src.Sent() >= g.limit {
		return packetsw.Flit{}, false
	}
	word, ok := g.src.Offer()
	if !ok {
		return packetsw.Flit{}, false
	}
	kind := packetsw.Body
	g.inPacket++
	if g.inPacket >= PacketWordsPerPacket {
		kind = packetsw.Tail
		g.inPacket = 0
	}
	data := packetsw.Flit{Kind: kind, VC: g.vc, Data: word.Data}
	if g.inPacket == 1 {
		// Open the packet: head first, then the data word.
		g.queued = append(g.queued, data)
		return packetsw.Flit{Kind: packetsw.Head, VC: g.vc,
			Data: packetsw.HeadData(g.dst)}, true
	}
	return data, true
}

// retry re-queues a flit the router could not accept this cycle.
func (g *refPacketGen) retry(f packetsw.Flit) { g.retrySlot = &f }

// retired reports whether the generator will emit nothing more.
func (g *refPacketGen) retired() bool {
	return g.limit > 0 && g.inPacket == 0 && g.retrySlot == nil && len(g.queued) == 0 &&
		g.src.Sent() >= g.limit
}

// skip replays n cycles of a retired generator.
func (g *refPacketGen) skip(n uint64) { g.cycle += int(n) }

// refPacketInjector injects one stream's flits at the router's tile
// port, retrying a flit the router refuses on the next cycle.
type refPacketInjector struct {
	r   *packetsw.Router
	gen *refPacketGen
}

func (d *refPacketInjector) Eval() {
	f, ok := d.gen.next()
	if ok && !d.r.Inject(f) {
		d.gen.retry(f)
	}
}

func (d *refPacketInjector) Commit()             {}
func (d *refPacketInjector) Quiescent() bool     { return d.gen.retired() }
func (d *refPacketInjector) IdleWindow(n uint64) { d.gen.skip(n) }

// refPacketFeeder presents one stream's flits on its own feeder register
// of a neighbour input port, one per cycle, clearing it on cycles with
// none.
type refPacketFeeder struct {
	gen  *refPacketGen
	slot *packetsw.Flit
}

func (d *refPacketFeeder) Eval() {
	*d.slot = packetsw.Flit{}
	if f, ok := d.gen.next(); ok {
		*d.slot = f
	}
}

func (d *refPacketFeeder) Commit() {}
func (d *refPacketFeeder) Quiescent() bool {
	return d.gen.retired() && *d.slot == packetsw.Flit{}
}
func (d *refPacketFeeder) IdleWindow(n uint64) { d.gen.skip(n) }

// refRunPacket is RunPacket as it was before the streams shared one
// driver per input port.
func refRunPacket(sc Scenario, pat Pattern, cfg RunConfig) (Result, error) {
	if err := pat.Validate(); err != nil {
		return Result{}, err
	}
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	pp := cfg.psParams()
	r := packetsw.NewRouter(pp, packetsw.PortRoute)
	meter := power.NewMeter(packetsw.Netlist(pp, cfg.Lib), cfg.Lib, cfg.FreqMHz)
	r.BindMeter(meter)

	w := sim.NewWorld(cfg.worldOpts()...)
	w.Add(r)

	var sources []*Source
	var res Result
	for _, st := range sc.Streams {
		vc := st.ID - 1
		if vc < 0 || vc >= pp.VCs {
			return Result{}, fmt.Errorf("traffic: stream %d has no VC", st.ID)
		}
		src := NewSourceSeeded(pat, st.ID, cfg.Seed)
		sources = append(sources, src)
		gen := &refPacketGen{
			src: src, vc: vc, dst: st.Out,
			period: laneWordPeriod, limit: cfg.WordsPerStream,
		}
		if st.In == core.Tile {
			w.Add(&refPacketInjector{r: r, gen: gen})
		} else {
			slot := new(packetsw.Flit)
			r.ConnectIn(st.In, slot)
			w.Add(&refPacketFeeder{gen: gen, slot: slot})
		}
	}
	drain := &patternDrain{r: r}
	w.Add(drain)

	w.Run(cfg.Cycles)
	for _, s := range sources {
		res.WordsSent += s.Sent()
	}
	res.WordsDelivered = drain.delivered
	res.Power = meter.Report("packet switched / scenario " + sc.Name)
	res.Attribution = meter.AttributionSorted()
	return res, nil
}

// TestRunPacketMatchesReference: on every stream set the old harness
// handled correctly, RunPacket gives its bytes under both kernels — the
// paper's four scenarios, and generated sets of up to four streams with
// at most one per input port and the tile stream first, over VCs 1–4,
// depths 2–8, loads, flip rates and word budgets.
func TestRunPacketMatchesReference(t *testing.T) {
	lib := stdcell.Default013()
	type run struct {
		sc  Scenario
		pat Pattern
		cfg RunConfig
	}
	var runs []run
	for _, sc := range Scenarios() {
		runs = append(runs, run{sc, Pattern{FlipProb: 0.5, Load: 1},
			RunConfig{Cycles: 2000, FreqMHz: 25, Lib: lib}})
	}
	rng := rand.New(rand.NewSource(32))
	for i := 0; i < 48; i++ {
		pp := packetsw.DefaultParams()
		pp.VCs = 1 + rng.Intn(4)
		pp.Depth = 2 + rng.Intn(7)
		ins := rng.Perm(5)[:1+rng.Intn(min(pp.VCs, 4))]
		if k := slices.Index(ins, int(core.Tile)); k > 0 {
			ins[0], ins[k] = ins[k], ins[0]
		}
		ids := rng.Perm(pp.VCs)
		sc := Scenario{Name: fmt.Sprintf("gen%d", i)}
		for k, in := range ins {
			out := (in + 1 + rng.Intn(4)) % 5
			sc.Streams = append(sc.Streams, Stream{ID: ids[k] + 1, In: core.Port(in), Out: core.Port(out)})
		}
		loads := []float64{1, 0.6}
		budgets := []uint64{0, 20, 37}
		runs = append(runs, run{sc,
			Pattern{FlipProb: float64(rng.Intn(5)) / 4, Load: loads[rng.Intn(2)]},
			RunConfig{Cycles: 600 + rng.Intn(900), FreqMHz: 25, Lib: lib, PSParams: &pp,
				WordsPerStream: budgets[rng.Intn(3)], Seed: uint64(rng.Intn(3))}})
	}
	for _, r := range runs {
		want, err := refRunPacket(r.sc, r.pat, r.cfg)
		if err != nil {
			t.Fatalf("%s: reference: %v", r.sc.Name, err)
		}
		for _, k := range allKernels {
			cfg := r.cfg
			cfg.Kernel = k
			got, err := RunPacket(r.sc, r.pat, cfg)
			if err != nil {
				t.Fatalf("%s %v: %v", r.sc.Name, k, err)
			}
			if g, w := fmt.Sprintf("%+v", got), fmt.Sprintf("%+v", want); g != w {
				t.Errorf("%s %v (streams %v, %+v, depth %d): RunPacket differs from the reference\ngot  %s\nwant %s",
					r.sc.Name, k, r.sc.Streams, r.pat, r.cfg.psParams().Depth, g, w)
			}
		}
	}
}

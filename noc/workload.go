package noc

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/apps"
	"repro/internal/ccn"
	"repro/internal/core"
	"repro/internal/kpn"
	"repro/internal/mesh"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Workloads lists the wireless applications a workload Scenario can map:
// the three applications of the paper's Section 3.
func Workloads() []string { return []string{"hiperlan2", "umts", "drm"} }

// workloadGraph resolves a workload name to its process graph for a mesh
// of the given tile count. UMTS accepts an operating point suffix,
// "umts:N", selecting N rake fingers (the knob the CCN re-maps at run
// time when reception quality changes). Each finger is a process of its
// own, so N above the tile count is rejected before any graph is built.
func workloadGraph(name string, tiles int) (*kpn.Graph, error) {
	switch low := strings.ToLower(name); low {
	case "hiperlan", "hiperlan2":
		return apps.HiperLANGraph(apps.DefaultHiperLAN(), apps.HiperLANModulations()[3]), nil
	case "umts":
		return apps.UMTSGraph(apps.DefaultUMTS()), nil
	case "drm":
		return apps.DRMGraph(), nil
	default:
		if fingers, ok := strings.CutPrefix(low, "umts:"); ok {
			n, err := strconv.Atoi(fingers)
			if err != nil {
				return nil, fmt.Errorf("noc: bad umts finger count %q", fingers)
			}
			if n > tiles {
				return nil, fmt.Errorf("noc: %d umts fingers, one process each, exceed the mesh's %d tiles", n, tiles)
			}
			u := apps.DefaultUMTS()
			u.Fingers = n
			if err := u.Validate(); err != nil {
				return nil, fmt.Errorf("noc: %w", err)
			}
			return apps.UMTSGraph(u), nil
		}
		return nil, fmt.Errorf("noc: unknown workload %q (have %s)",
			name, strings.Join(Workloads(), ", "))
	}
}

// placementsOf converts a mapping's tile assignment into Placements,
// ordered by process name for stable output.
func placementsOf(workload string, mp *ccn.Mapping) []Placement {
	procs := make([]string, 0, len(mp.Placement))
	for name := range mp.Placement {
		procs = append(procs, name)
	}
	sort.Strings(procs)
	out := make([]Placement, 0, len(procs))
	for _, name := range procs {
		c := mp.Placement[name]
		out = append(out, Placement{Workload: workload, Process: name, X: c.X, Y: c.Y})
	}
	return out
}

// inFlightAllowance is the number of words allowed to still be in flight
// (converters, windows, link registers) when judging whether a channel
// kept up.
const inFlightAllowance = 32

// rateScale is the fixed-point denominator of the channel drivers' rate
// accumulators. Integer accrual makes a window of n skipped cycles
// algebraically identical to n single cycles — the property the event
// kernel's fast-forward replay needs — where a float accumulator would
// round differently.
const rateScale = 1 << 32

// chanSource drives one guaranteed-throughput channel at its required
// word rate. It replaces the every-cycle sim.Func channel driver: as a
// first-class quiescent component with a rate-derived NextEvent, it
// lets underloaded mesh runs fast-forward between words instead of
// pinning the kernel to every cycle (the ROADMAP's "workload channels
// as Timed sources" item).
type chanSource struct {
	gtx     *core.GangTx
	num     uint64 // words per cycle in 2^-32 units (exact integer rate)
	acc     uint64 // fractional word accumulator, < rateScale
	credits uint64 // whole words due but not yet accepted by the gang
	n       uint16 // data word counter
	offered uint64
	cycle   uint64 // local clock, always equal to the world clock
}

func newChanSource(gtx *core.GangTx, wordsPerCycle float64) *chanSource {
	num := uint64(math.Round(wordsPerCycle * rateScale))
	if num == 0 {
		num = 1
	}
	return &chanSource{gtx: gtx, num: num}
}

// accrue advances the rate accumulator by one cycle.
func (s *chanSource) accrue() {
	s.acc += s.num
	s.credits += s.acc >> 32
	s.acc &= rateScale - 1
}

// Eval implements sim.Clocked: accrue this cycle's words and push as
// many due words as the gang accepts (backpressure lets credits bank,
// exactly like the float accumulator it replaces).
func (s *chanSource) Eval() {
	s.accrue()
	for s.credits >= 1 && s.gtx.Ready() {
		if !s.gtx.Push(core.DataWord(s.n)) {
			break
		}
		s.n++
		s.credits--
		s.offered++
	}
}

// Commit implements sim.Clocked.
func (s *chanSource) Commit() { s.cycle++ }

// Quiescent implements sim.Quiescer: no word due now and none banked.
func (s *chanSource) Quiescent() bool {
	return s.credits == 0 && (s.acc+s.num)>>32 == 0
}

// IdleWindow implements sim.Quiescer: the accumulator advances on
// skipped cycles too (by the Quiescent contract it cannot produce a
// credit there), and integer accrual commutes, so one call is exactly n
// single-cycle accruals.
func (s *chanSource) IdleWindow(n uint64) {
	s.acc += n * s.num
	s.credits += s.acc >> 32
	s.acc &= rateScale - 1
	s.cycle += n
}

// NextEvent implements sim.Timed: the cycle the accumulator next
// crosses a whole word, which ends the source's quiescence with no
// external stimulus.
func (s *chanSource) NextEvent() (uint64, bool) {
	if s.credits > 0 {
		return s.cycle, true
	}
	k := (rateScale - s.acc + s.num - 1) / s.num // accruals until a credit
	return s.cycle + k - 1, true
}

// chanSink drains one channel's receive gang on behalf of the
// destination tile. Popping an empty gang is a no-op, so skipping the
// sink while nothing is buffered is exact.
type chanSink struct {
	grx *core.GangRx
}

// Eval implements sim.Clocked.
func (d *chanSink) Eval() {
	for {
		if _, ok := d.grx.Pop(); !ok {
			break
		}
	}
}

// Commit implements sim.Clocked.
func (d *chanSink) Commit() {}

// Quiescent implements sim.Quiescer: the next word in stripe order has
// not arrived.
func (d *chanSink) Quiescent() bool { return !d.grx.Available() }

// IdleWindow implements sim.Quiescer: an empty sink accrues no
// per-cycle state, so idle replay is a no-op.
func (d *chanSink) IdleWindow(n uint64) {}

var (
	_ sim.Timed    = (*chanSource)(nil)
	_ sim.Quiescer = (*chanSink)(nil)
)

// runCircuitWorkload maps the scenario's applications onto a W×H
// circuit-switched mesh via the CCN, drives every guaranteed-throughput
// channel at its required rate and measures delivery, aggregate power
// and (optionally) a waveform of node (0,0).
func runCircuitWorkload(f fabric, sc Scenario) (*Result, error) {
	p := f.coreParams()
	m := mesh.New(sc.MeshWidth, sc.MeshHeight, p, core.DefaultAssemblyOptions(),
		f.worldOpts()...)
	dom := m.BindMeters(f.mustLib(), sc.FreqMHz, f.Gated)
	mgr := ccn.NewManager(m, sc.FreqMHz)

	res := &Result{
		Fabric:   KindCircuit,
		Scenario: sc.Name,
		FreqMHz:  sc.FreqMHz,
		Cycles:   sc.Cycles,
	}

	type chanState struct {
		workload string
		ch       kpn.Channel
		conn     *ccn.Connection
		src      *chanSource
		sink     *chanSink
	}
	var states []chanState
	world := m.World()
	for _, wl := range sc.Workloads {
		graph, err := workloadGraph(wl, m.Nodes())
		if err != nil {
			return nil, err
		}
		mp, err := mgr.MapApplication(graph)
		if err != nil {
			return nil, fmt.Errorf("noc: mapping %s onto %dx%d mesh: %w",
				wl, sc.MeshWidth, sc.MeshHeight, err)
		}
		res.Placements = append(res.Placements, placementsOf(wl, mp)...)

		for _, ch := range graph.GTChannels() {
			conn := mp.Connections[ch.Name]
			src := m.At(conn.Src)
			dst := m.At(conn.Dst)
			// Words per cycle required across the ganged lanes.
			wordsPerCycle := ch.BandwidthMbps / sc.FreqMHz / wordBits
			txLanes := make([]int, 0, conn.Lanes)
			rxLanes := make([]int, 0, conn.Lanes)
			for _, lane := range conn.Segments {
				txLanes = append(txLanes, lane[0].Circuit.In.Lane)
				rxLanes = append(rxLanes, lane[len(lane)-1].Circuit.Out.Lane)
			}
			gtx, grx, err := core.GangFor(src, dst, txLanes, rxLanes)
			if err != nil {
				return nil, fmt.Errorf("noc: channel %s/%s: %w", wl, ch.Name, err)
			}
			driver := newChanSource(gtx, wordsPerCycle)
			sink := &chanSink{grx: grx}
			world.Add(driver, sink)
			states = append(states, chanState{
				workload: wl, ch: ch, conn: conn, src: driver, sink: sink,
			})
		}
	}

	var rec *trace.Recorder
	if f.traceCycles > 0 {
		rec = trace.NewRecorder(f.traceCycles)
		node := m.At(mesh.Coord{X: 0, Y: 0})
		for g := 0; g < p.TotalLanes(); g++ {
			lane := p.LaneOf(g)
			rec.Add(trace.U8(fmt.Sprintf("out.%v.%d", lane.Port, lane.Lane),
				p.LaneWidth, &node.R.Out[g]))
		}
		world.Add(rec)
	}

	m.Run(sc.Cycles)
	f.observeKernel()(world)

	for _, st := range states {
		received := st.sink.grx.Received()
		achieved := stats.Rate(received, wordBits, uint64(sc.Cycles), sc.FreqMHz)
		res.Channels = append(res.Channels, Channel{
			Workload:       st.workload,
			Name:           st.ch.Name,
			Lanes:          st.conn.Lanes,
			Hops:           len(st.conn.Route) - 1,
			RequiredMbps:   st.ch.BandwidthMbps,
			AchievedMbps:   achieved,
			WordsDelivered: received,
			Met:            received+inFlightAllowance >= st.src.offered,
		})
		res.WordsSent += st.src.offered
		res.WordsDelivered += received
	}
	res.ThroughputMbps = stats.Rate(res.WordsDelivered, wordBits, uint64(sc.Cycles), sc.FreqMHz)
	res.LinkUtilization = mgr.LinkUtilization()
	res.Power = powerFrom(dom.Report("mesh " + sc.Name))
	// Per-router attribution: every node has its own meter, fed by its
	// own activity — idle routers show up as clock+leakage only, the
	// paper's clock-gating argument made visible per router.
	res.PerComponent = nodeComponents(dom.PerNode("mesh "+sc.Name), sc.MeshWidth)

	if rec != nil {
		var buf bytes.Buffer
		nsPerCycle := int(1e3 / sc.FreqMHz)
		if nsPerCycle < 1 {
			nsPerCycle = 1
		}
		if err := rec.WriteVCD(&buf, "node00", fmt.Sprintf("%dns", nsPerCycle)); err != nil {
			return nil, err
		}
		res.NodeVCD = buf.Bytes()
	}
	return res, nil
}

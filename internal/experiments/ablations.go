package experiments

import (
	"context"
	"fmt"
	"io"

	"repro/internal/apps"
	"repro/internal/benet"
	"repro/internal/ccn"
	"repro/internal/core"
	"repro/internal/kpn"
	"repro/internal/mesh"
	"repro/internal/packetsw"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/synth"
	"repro/internal/traffic"
)

func init() {
	register(Experiment{
		ID:     "fig9gated",
		Title:  "Clock gating ablation: Figure 9 with configuration-driven gating",
		Paper:  "Sections 7.3/8 (future work)",
		Data:   dataFrom(fig9GatedResult),
		Render: renderAs(renderFig9Gated),
	})
	register(Experiment{
		ID:     "setup",
		Title:  "Configuration latency over the BE network",
		Paper:  "Section 5.1 (1 ms/lane, 20 ms/router budgets)",
		Data:   dataFrom(setupResult),
		Render: renderAs(renderSetup),
	})
	register(Experiment{
		ID:     "lanes",
		Title:  "Lane count/width design sweep",
		Paper:  "Section 5.1 (adjustable parameters)",
		Data:   dataFrom(lanesResult),
		Render: renderAs(renderLanes),
	})
	register(Experiment{
		ID:     "window",
		Title:  "Window-counter flow control sweep",
		Paper:  "Section 5.2",
		Data:   dataFrom(WindowData),
		Render: renderAs(renderWindow),
	})
	register(Experiment{
		ID:     "apps",
		Title:  "Run-time mapping of the three wireless applications",
		Paper:  "Sections 3 and 7.3",
		Data:   dataFrom(AppsData),
		Render: renderAs(renderApps),
	})
	register(Experiment{
		ID:     "crossover",
		Title:  "Load sweep: energy per transported bit, both routers",
		Paper:  "Discussion (Section 7.3)",
		Data:   dataFrom(CrossoverData),
		Render: renderAs(renderCrossover),
	})
}

// Fig9GatedResult pairs the ungated and gated Figure 9 runs.
type Fig9GatedResult struct {
	// Config is the shared (ungated) setup.
	Config Fig9Config `json:"config"`
	// Ungated and Gated hold the eight bars of each run.
	Ungated []Fig9Bar `json:"ungated"`
	Gated   []Fig9Bar `json:"gated"`
}

func fig9GatedResult() (Fig9GatedResult, error) {
	base := DefaultFig9Config()
	base.Cycles = 3000
	ungated, err := Fig9Data(base)
	if err != nil {
		return Fig9GatedResult{}, err
	}
	gcfg := base
	gcfg.Gated = true
	gated, err := Fig9Data(gcfg)
	if err != nil {
		return Fig9GatedResult{}, err
	}
	return Fig9GatedResult{Config: base, Ungated: ungated, Gated: gated}, nil
}

func renderFig9Gated(w io.Writer, res Fig9GatedResult) error {
	fmt.Fprintln(w, "circuit-switched router, dynamic power [uW] at 25 MHz, random data:")
	fmt.Fprintf(w, "%-9s %14s %14s %10s\n", "Scenario", "ungated", "clock gated", "saving")
	for i, b := range res.Ungated {
		if b.Router != "circuit" {
			continue
		}
		g := res.Gated[i]
		fmt.Fprintf(w, "%-9s %11.1f uW %11.1f uW %9.0f%%\n",
			b.Scenario, b.Power.DynamicUW(), g.Power.DynamicUW(),
			(1-g.Power.DynamicUW()/b.Power.DynamicUW())*100)
	}
	fmt.Fprintln(w, "\nwith gating the offset disappears and power follows the stream count,")
	fmt.Fprintln(w, "confirming the paper's expectation (\"If clock gating is used, we expect")
	fmt.Fprintln(w, "that this offset will decrease\")")
	return nil
}

// SetupResult is the data behind the setup experiment.
type SetupResult struct {
	// PathCommands and PathCycles describe configuring one 2-lane
	// connection across the mesh.
	PathCommands int    `json:"path_commands"`
	PathCycles   uint64 `json:"path_cycles"`
	// PerLaneMS is the worst per-command latency in ms at the BE clock.
	PerLaneMS float64 `json:"per_lane_ms"`
	// FullRouterMS is the full 20-lane reconfiguration time in ms.
	FullRouterMS float64 `json:"full_router_ms"`
	// FreqMHz is the BE network clock.
	FreqMHz float64 `json:"freq_mhz"`
}

// SetupData measures configuration delivery over the BE network on a 4×4
// mesh at the given clock.
func SetupData(freqMHz float64) (SetupResult, error) {
	m := mesh.New(4, 4, core.DefaultParams(), core.DefaultAssemblyOptions())
	mgr := ccn.NewManager(m, freqMHz)
	be := benet.New(4, 4, packetsw.DefaultParams())
	bc := &ccn.BEConfigurator{Net: be, Mesh: m, CCNNode: mesh.Coord{X: 0, Y: 0}}
	conn, err := mgr.Allocate(mesh.Coord{X: 0, Y: 3}, mesh.Coord{X: 3, Y: 0}, 160)
	if err != nil {
		return SetupResult{}, err
	}
	res, err := bc.Configure(conn)
	if err != nil {
		return SetupResult{}, err
	}
	full, err := bc.FullRouterReconfig(mesh.Coord{X: 2, Y: 2})
	if err != nil {
		return SetupResult{}, err
	}
	return SetupResult{
		PathCommands: res.Commands,
		PathCycles:   res.Cycles,
		PerLaneMS:    res.MaxCommandTimeMS(freqMHz),
		FullRouterMS: full.TimeMS(freqMHz),
		FreqMHz:      freqMHz,
	}, nil
}

func setupResult() ([]SetupResult, error) {
	freqs := []float64{25, 100}
	return sweep.Map(context.Background(), len(freqs), 0, func(i int) (SetupResult, error) {
		return SetupData(freqs[i])
	})
}

func renderSetup(w io.Writer, results []SetupResult) error {
	for _, r := range results {
		fmt.Fprintf(w, "BE network at %.0f MHz (4x4 mesh, CCN at (0,0)):\n", r.FreqMHz)
		fmt.Fprintf(w, "  2-lane cross-mesh connection: %d commands in %d cycles (%.4f ms)\n",
			r.PathCommands, r.PathCycles, float64(r.PathCycles)/r.FreqMHz/1e3)
		fmt.Fprintf(w, "  worst per-lane command latency: %.4f ms (paper budget: < 1 ms)\n",
			r.PerLaneMS)
		fmt.Fprintf(w, "  full 20-lane router reconfiguration: %.4f ms (paper budget: < 20 ms)\n",
			r.FullRouterMS)
	}
	return nil
}

func lanesResult() ([]synth.LaneSweepPoint, error) {
	return synth.DefaultLaneSweep(lib), nil
}

func renderLanes(w io.Writer, pts []synth.LaneSweepPoint) error {
	fmt.Fprintf(w, "%-6s %-6s %12s %10s %14s %9s\n",
		"lanes", "width", "area [mm2]", "fmax", "link bw", "streams")
	for _, p := range pts {
		fmt.Fprintf(w, "%-6d %-6d %12.4f %6.0f MHz %9.1f Gb/s %9d\n",
			p.Lanes, p.Width, p.AreaMM2, p.MaxFreqMHz, p.LinkGbps, p.Streams)
	}
	fmt.Fprintln(w, "\nthe paper's 4x4-bit choice balances concurrent streams against area and")
	fmt.Fprintln(w, "matches the packet-switched router's four virtual channels")
	return nil
}

// WindowPoint is one sample of the window-counter sweep.
type WindowPoint struct {
	// WC and X are the flow parameters.
	WC int `json:"wc"`
	X  int `json:"x"`
	// ThroughputWordsPer100 is the delivered words per 100 cycles.
	ThroughputWordsPer100 float64 `json:"throughput_words_per_100"`
	// Stalls counts source stall cycles.
	Stalls uint64 `json:"stalls"`
}

// WindowData sweeps the window counter across a two-router circuit with a
// consumer that drains at line rate, showing the window size needed to
// cover the round-trip. Each window size is an independent simulation;
// they run as parallel sweep cells.
func WindowData() ([]WindowPoint, error) {
	wcs := []int{1, 2, 4, 8, 16}
	return sweep.Map(context.Background(), len(wcs), 0, func(i int) (WindowPoint, error) {
		wc := wcs[i]
		x := wc / 2
		if x < 1 {
			x = 1
		}
		p := core.DefaultParams()
		flow := core.FlowParams{UseAck: true, WC: wc, X: x}
		opt := core.AssemblyOptions{Flow: flow, RxBufCap: wc}
		a := core.NewAssembly(p, opt)
		b := core.NewAssembly(p, opt)
		for l := 0; l < p.LanesPerPort; l++ {
			ae := p.Global(core.LaneID{Port: core.East, Lane: l})
			bw := p.Global(core.LaneID{Port: core.West, Lane: l})
			b.R.ConnectIn(bw, &a.R.Out[ae])
			a.R.ConnectAckIn(ae, &b.R.AckOut[bw])
		}
		if err := a.EstablishLocal(core.Circuit{
			In: core.LaneID{Port: core.Tile, Lane: 0}, Out: core.LaneID{Port: core.East, Lane: 0},
		}); err != nil {
			return WindowPoint{}, err
		}
		if err := b.EstablishLocal(core.Circuit{
			In: core.LaneID{Port: core.West, Lane: 0}, Out: core.LaneID{Port: core.Tile, Lane: 0},
		}); err != nil {
			return WindowPoint{}, err
		}
		// The kernel skips neither assembly here: both carry an
		// established circuit.
		world := sim.NewWorld()
		world.Add(a, b)
		n, recv := 0, 0
		world.Add(&sim.Func{OnEval: func() {
			if a.Tx[0].Ready() {
				if a.Tx[0].Push(core.DataWord(uint16(n))) {
					n++
				}
			}
			if _, ok := b.Rx[0].Pop(); ok {
				recv++
			}
		}})
		const cycles = 3000
		world.Run(cycles)
		if b.Rx[0].Dropped() != 0 {
			return WindowPoint{}, fmt.Errorf("experiments: window WC=%d dropped words", wc)
		}
		return WindowPoint{
			WC: wc, X: x,
			ThroughputWordsPer100: float64(recv) / cycles * 100,
			Stalls:                a.Tx[0].Stalled(),
		}, nil
	})
}

func renderWindow(w io.Writer, pts []WindowPoint) error {
	fmt.Fprintln(w, "two-router circuit, consumer at line rate, 3000 cycles:")
	fmt.Fprintf(w, "%-5s %-5s %22s %10s\n", "WC", "X", "words per 100 cycles", "stalls")
	for _, p := range pts {
		fmt.Fprintf(w, "%-5d %-5d %22.1f %10d\n", p.WC, p.X, p.ThroughputWordsPer100, p.Stalls)
	}
	fmt.Fprintln(w, "\nline rate is 20 words per 100 cycles (one word per 5 cycles); small")
	fmt.Fprintln(w, "windows cannot cover the ack round-trip and throttle the source, larger")
	fmt.Fprintln(w, "windows reach line rate with zero destination overflow")
	return nil
}

// AppMapping summarizes one wireless application mapped onto the mesh.
type AppMapping struct {
	// Name labels the application and its operating point.
	Name string `json:"name"`
	// Processes is the process count of the KPN graph.
	Processes int `json:"processes"`
	// MeshW, MeshH and FreqMHz describe the target NoC.
	MeshW   int     `json:"mesh_w"`
	MeshH   int     `json:"mesh_h"`
	FreqMHz float64 `json:"freq_mhz"`
	// Channels and LanePaths count GT connections and allocated lane
	// paths; Hops is the route length total.
	Channels  int `json:"channels"`
	LanePaths int `json:"lane_paths"`
	Hops      int `json:"hops"`
	// LinkUtilization is the fraction of mesh lane capacity in use.
	LinkUtilization float64 `json:"link_utilization"`
	// GTMbps and BEFraction characterize the traffic mix.
	GTMbps     float64 `json:"gt_mbps"`
	BEFraction float64 `json:"be_fraction"`
	// MaxChannelMbps and MaxChannelLanes describe the heaviest stream.
	MaxChannelMbps  float64 `json:"max_channel_mbps"`
	MaxChannelLanes int     `json:"max_channel_lanes"`
}

// AppsData maps the three wireless applications of Section 3 onto the
// circuit-switched NoC via the CCN and reports the allocation summary.
func AppsData() ([]AppMapping, error) {
	type appCase struct {
		name    string
		graph   *kpn.Graph
		freqMHz float64
		w, h    int
	}
	cases := []appCase{
		{"HiperLAN/2 (QAM-64)", apps.HiperLANGraph(apps.DefaultHiperLAN(), apps.HiperLANModulations()[3]), 200, 4, 3},
		{"UMTS (4 fingers, SF4)", apps.UMTSGraph(apps.DefaultUMTS()), 100, 4, 3},
		{"DRM", apps.DRMGraph(), 25, 4, 3},
	}
	var out []AppMapping
	for _, c := range cases {
		m := mesh.New(c.w, c.h, core.DefaultParams(), core.DefaultAssemblyOptions())
		mgr := ccn.NewManager(m, c.freqMHz)
		mp, err := mgr.MapApplication(c.graph)
		if err != nil {
			return nil, fmt.Errorf("mapping %s: %w", c.name, err)
		}
		var laneSum int
		for _, conn := range mp.Connections {
			laneSum += conn.Lanes
		}
		out = append(out, AppMapping{
			Name:            c.name,
			Processes:       len(c.graph.Processes),
			MeshW:           c.w,
			MeshH:           c.h,
			FreqMHz:         c.freqMHz,
			Channels:        len(mp.Connections),
			LanePaths:       laneSum,
			Hops:            mp.TotalHops(),
			LinkUtilization: mgr.LinkUtilization(),
			GTMbps:          c.graph.TotalBandwidthMbps(kpn.GT),
			BEFraction:      c.graph.BEFraction(),
			MaxChannelMbps:  c.graph.MaxChannelMbps(),
			MaxChannelLanes: mgr.LanesFor(c.graph.MaxChannelMbps()),
		})
	}
	return out, nil
}

func renderApps(w io.Writer, rows []AppMapping) error {
	for _, r := range rows {
		fmt.Fprintf(w, "%-24s %2d processes on %dx%d mesh at %3.0f MHz: "+
			"%2d GT channels, %2d lane paths, %2d hops, util %.1f%%\n",
			r.Name, r.Processes, r.MeshW, r.MeshH, r.FreqMHz,
			r.Channels, r.LanePaths, r.Hops, r.LinkUtilization*100)
		fmt.Fprintf(w, "%-24s   GT %.1f Mbit/s, BE share %.2f%% (< 5%% per Section 3.3), "+
			"heaviest channel %.0f Mbit/s -> %d lane(s)\n",
			"", r.GTMbps, r.BEFraction*100, r.MaxChannelMbps, r.MaxChannelLanes)
	}
	fmt.Fprintln(w, "\nall three applications of Section 3 map onto the circuit-switched NoC")
	fmt.Fprintln(w, "with guaranteed-throughput lanes (paper Section 7.3, second bullet)")
	return nil
}

// CrossoverPoint is one sample of the load sweep.
type CrossoverPoint struct {
	// Load is the offered load fraction.
	Load float64 `json:"load"`
	// CircuitNJPerWord and PacketNJPerWord are total energy per
	// delivered word in nanojoules.
	CircuitNJPerWord float64 `json:"circuit_nj_per_word"`
	PacketNJPerWord  float64 `json:"packet_nj_per_word"`
}

// CrossoverData sweeps the offered load on Scenario III and reports the
// energy per transported word for both routers — the efficiency view of
// the paper's comparison. The load points run as parallel sweep cells.
func CrossoverData() ([]CrossoverPoint, error) {
	rc := traffic.RunConfig{Cycles: 4000, FreqMHz: 25, Lib: lib}
	sc := traffic.Scenarios()[2]
	loads := []float64{0.1, 0.25, 0.5, 0.75, 1.0}
	return sweep.Map(context.Background(), len(loads), 0, func(i int) (CrossoverPoint, error) {
		load := loads[i]
		pat := traffic.Pattern{FlipProb: 0.5, Load: load}
		cr, err := traffic.RunCircuit(sc, pat, rc)
		if err != nil {
			return CrossoverPoint{}, err
		}
		pr, err := traffic.RunPacket(sc, pat, rc)
		if err != nil {
			return CrossoverPoint{}, err
		}
		t := float64(rc.Cycles) / rc.FreqMHz // µs
		energyNJ := func(p float64) float64 { return p * t / 1e3 }
		cp := CrossoverPoint{Load: load}
		if cr.WordsSent > 0 {
			cp.CircuitNJPerWord = energyNJ(cr.Power.TotalUW()) / float64(cr.WordsSent)
		}
		if pr.WordsSent > 0 {
			cp.PacketNJPerWord = energyNJ(pr.Power.TotalUW()) / float64(pr.WordsSent)
		}
		return cp, nil
	})
}

func renderCrossover(w io.Writer, pts []CrossoverPoint) error {
	fmt.Fprintln(w, "Scenario III (streams 1+2), 25 MHz, random data; total energy per word:")
	fmt.Fprintf(w, "%-8s %20s %20s %8s\n", "load", "circuit [nJ/word]", "packet [nJ/word]", "ratio")
	var ratios stats.Series
	for _, p := range pts {
		r := p.PacketNJPerWord / p.CircuitNJPerWord
		ratios.Add(r)
		fmt.Fprintf(w, "%-8.2f %20.2f %20.2f %8.2f\n",
			p.Load, p.CircuitNJPerWord, p.PacketNJPerWord, r)
	}
	fmt.Fprintf(w, "\nmean energy advantage %.2fx; at every load the circuit-switched router\n",
		ratios.Mean())
	fmt.Fprintln(w, "transports a word cheaper — there is no crossover, matching the paper's")
	fmt.Fprintln(w, "conclusion for stream-dominated traffic")
	return nil
}

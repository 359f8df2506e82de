package repro_test

// One benchmark per table and figure of the paper, plus micro-benchmarks
// of the simulation kernels. The table/figure benchmarks exercise exactly
// the code path that regenerates the artefact (reduced cycle counts keep
// iterations reasonable; `nocbench` runs the full-length versions).

import (
	"io"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/packetsw"
	"repro/internal/sim"
	"repro/internal/stdcell"
	"repro/internal/synth"
	"repro/internal/traffic"
)

func runExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if err := experiments.RunMany(io.Discard, []string{id}, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1 regenerates Table 1 (HiperLAN/2 bandwidths).
func BenchmarkTable1(b *testing.B) { runExperiment(b, "table1") }

// BenchmarkTable2 regenerates Table 2 (UMTS bandwidths).
func BenchmarkTable2(b *testing.B) { runExperiment(b, "table2") }

// BenchmarkTable3 regenerates Table 3 (stream definitions).
func BenchmarkTable3(b *testing.B) { runExperiment(b, "table3") }

// BenchmarkTable4 regenerates Table 4 (synthesis of the three routers).
func BenchmarkTable4(b *testing.B) { runExperiment(b, "table4") }

// BenchmarkFig9 regenerates Figure 9's eight power bars (reduced length).
func BenchmarkFig9(b *testing.B) {
	cfg := experiments.Fig9Config{Cycles: 1000, FreqMHz: 25}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig9Data(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig10 regenerates Figure 10's 24 samples (reduced length).
func BenchmarkFig10(b *testing.B) {
	cfg := experiments.Fig9Config{Cycles: 500, FreqMHz: 25}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig10Data(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9Gated runs the clock-gating ablation.
func BenchmarkFig9Gated(b *testing.B) {
	cfg := experiments.Fig9Config{Cycles: 500, FreqMHz: 25, Gated: true}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig9Data(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSetup measures BE-network configuration delivery.
func BenchmarkSetup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.SetupData(25); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLanes runs the lane-geometry design sweep.
func BenchmarkLanes(b *testing.B) {
	lib := stdcell.Default013()
	for i := 0; i < b.N; i++ {
		if pts := synth.LaneSweep(lib, []int{2, 4, 6, 8}, []int{2, 4, 8}); len(pts) == 0 {
			b.Fatal("empty sweep")
		}
	}
}

// BenchmarkWindow sweeps the window-counter flow control.
func BenchmarkWindow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.WindowData(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkApps maps all three wireless applications.
func BenchmarkApps(b *testing.B) { runExperiment(b, "apps") }

// BenchmarkCrossover sweeps load for the energy-per-word comparison.
func BenchmarkCrossover(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.CrossoverData(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCircuitRouterCycle measures the simulation rate of one loaded
// circuit-switched assembly (cycles per second of wall clock).
func BenchmarkCircuitRouterCycle(b *testing.B) {
	sc := traffic.Scenarios()[3]
	cfg := traffic.RunConfig{Cycles: 1, FreqMHz: 25, Lib: stdcell.Default013()}
	// One long run amortized over b.N: build once, step b.N times.
	cfg.Cycles = b.N
	b.ResetTimer()
	if _, err := traffic.RunCircuit(sc, traffic.Pattern{FlipProb: 0.5, Load: 1}, cfg); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkPacketRouterCycle measures the packet-switched router's
// simulation rate under scenario IV.
func BenchmarkPacketRouterCycle(b *testing.B) {
	sc := traffic.Scenarios()[3]
	cfg := traffic.RunConfig{Cycles: b.N, FreqMHz: 25, Lib: stdcell.Default013()}
	b.ResetTimer()
	if _, err := traffic.RunPacket(sc, traffic.Pattern{FlipProb: 0.5, Load: 1}, cfg); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkConverterRoundTrip measures serialize+deserialize of one word
// through a converter pair.
func BenchmarkConverterRoundTrip(b *testing.B) {
	p := core.DefaultParams()
	tx := core.NewTxConverter(p, core.FlowParams{})
	rx := core.NewRxConverter(p, core.FlowParams{}, 8)
	tx.SetEnabled(true)
	rx.SetEnabled(true)
	rx.ConnectIn(&tx.Out)
	w := sim.NewWorld()
	w.Add(tx, rx)
	n := uint16(0)
	w.Add(&sim.Func{OnEval: func() {
		if tx.Ready() {
			tx.Push(core.DataWord(n))
			n++
		}
		rx.Pop()
	}})
	b.ResetTimer()
	w.Run(b.N)
}

// BenchmarkBERouterFlit measures the packet-switched router's raw flit
// throughput with a saturated tile port.
func BenchmarkBERouterFlit(b *testing.B) {
	r := packetsw.NewRouter(packetsw.DefaultParams(), packetsw.PortRoute)
	w := sim.NewWorld()
	w.Add(r)
	w.Add(&sim.Func{OnEval: func() {
		r.Inject(packetsw.Flit{Kind: packetsw.HeadTail, VC: 0,
			Data: packetsw.HeadData(core.East)})
	}})
	b.ResetTimer()
	w.Run(b.N)
}

// BenchmarkLatency measures the latency/jitter experiment.
func BenchmarkLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.LatencyData(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMeshPower runs the whole-NoC power comparison (reduced length).
func BenchmarkMeshPower(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.MeshPowerData(500); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSchedule compares TDM vs lane allocation effort.
func BenchmarkSchedule(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ScheduleData(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFreqSweep runs the frequency scaling sweep.
func BenchmarkFreqSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.FreqSweepData(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBELoad runs the best-effort latency-throughput curve.
func BenchmarkBELoad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.BELoadData(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPSDepth runs the buffer-depth design sweep.
func BenchmarkPSDepth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if pts := experiments.PSDepthData(); len(pts) == 0 {
			b.Fatal("empty sweep")
		}
	}
}

// BenchmarkMulticast runs the crossbar fan-out comparison.
func BenchmarkMulticast(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.MulticastData(); err != nil {
			b.Fatal(err)
		}
	}
}

package repro_test

// Micro-benchmarks of the simulation kernel: the same 5×5 mesh under the
// production and the naive kernel, sparse (2 streams, >80% of routers
// idle — where skipping and parking pay) and dense (a stream through
// every row — the worst case for the quiescence poll). A deterministic
// companion test pins the skip rate itself, so the speedup claim does not
// rest on wall-clock measurements alone.

import (
	"reflect"
	"testing"

	"repro/internal/benet"
	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/mesh"
	"repro/internal/packetsw"
	"repro/internal/pattern"
	"repro/internal/sim"
	"repro/internal/stdcell"
	"repro/internal/traffic"
)

// buildStreamMesh wires a w×h circuit-switched mesh with one full-rate
// West→East stream along each of the given rows: entering at the tile
// port of column 0, crossing span routers, leaving at the tile port of
// column span-1. All other routers stay unconfigured — the sparsity the
// paper's clock gating (and the production kernel) exploits.
func buildStreamMesh(tb testing.TB, kernel sim.Kernel, w, h int, rows []int, span int, opts ...sim.WorldOption) *mesh.Mesh {
	tb.Helper()
	p := core.DefaultParams()
	m := mesh.New(w, h, p, core.DefaultAssemblyOptions(),
		append([]sim.WorldOption{sim.WithKernel(kernel)}, opts...)...)
	world := m.World()
	for _, y := range rows {
		establish := func(x int, c core.Circuit) {
			if err := m.At(mesh.Coord{X: x, Y: y}).EstablishLocal(c); err != nil {
				tb.Fatal(err)
			}
		}
		establish(0, core.Circuit{
			In:  core.LaneID{Port: core.Tile, Lane: 0},
			Out: core.LaneID{Port: core.East, Lane: 0},
		})
		for x := 1; x < span-1; x++ {
			establish(x, core.Circuit{
				In:  core.LaneID{Port: core.West, Lane: 0},
				Out: core.LaneID{Port: core.East, Lane: 0},
			})
		}
		establish(span-1, core.Circuit{
			In:  core.LaneID{Port: core.West, Lane: 0},
			Out: core.LaneID{Port: core.Tile, Lane: 0},
		})
		tx := m.At(mesh.Coord{X: 0, Y: y}).Tx[0]
		rx := m.At(mesh.Coord{X: span - 1, Y: y}).Rx[0]
		n := uint16(0)
		world.Add(&sim.Func{OnEval: func() {
			if tx.Ready() {
				tx.Push(core.DataWord(n))
				n++
			}
			rx.Pop()
		}})
	}
	return m
}

func benchMeshKernel(b *testing.B, kernel sim.Kernel, rows []int, span int) {
	m := buildStreamMesh(b, kernel, 5, 5, rows, span)
	b.ResetTimer()
	m.Run(b.N)
}

// BenchmarkMeshSparseActiveKernel: 5×5 mesh, two single-hop streams (4
// of 25 routers configured, the rest idle), production kernel — the
// acceptance benchmark; must run at least 2× faster than its naive twin.
func BenchmarkMeshSparseActiveKernel(b *testing.B) {
	benchMeshKernel(b, sim.KernelActive, []int{0, 2}, 2)
}

// BenchmarkMeshSparseNaiveKernel is the evaluate-everything baseline.
func BenchmarkMeshSparseNaiveKernel(b *testing.B) {
	benchMeshKernel(b, sim.KernelNaive, []int{0, 2}, 2)
}

// BenchmarkMeshSparseTracerNilKernel is the disabled-observability twin
// of BenchmarkMeshSparseActiveKernel: the same mesh and streams with the
// tracer hook explicitly threaded through the world as nil — the
// configuration every untraced run uses. The benchdiff -pair gate holds
// it within 2% of its untouched twin in the same bench run, pinning the
// obs layer's zero-overhead-when-disabled contract against host-speed
// drift.
func BenchmarkMeshSparseTracerNilKernel(b *testing.B) {
	m := buildStreamMesh(b, sim.KernelActive, 5, 5, []int{0, 2}, 2, sim.WithTracer(nil))
	b.ResetTimer()
	m.Run(b.N)
}

// BenchmarkMeshDenseActiveKernel: a stream across the full width of
// every row; the quiescence poll runs but almost never skips — the
// kernel's overhead bound.
func BenchmarkMeshDenseActiveKernel(b *testing.B) {
	benchMeshKernel(b, sim.KernelActive, []int{0, 1, 2, 3, 4}, 5)
}

// BenchmarkMeshDenseNaiveKernel is the dense baseline.
func BenchmarkMeshDenseNaiveKernel(b *testing.B) {
	benchMeshKernel(b, sim.KernelNaive, []int{0, 1, 2, 3, 4}, 5)
}

// benchScenarioKernel runs a single-router power scenario under the given
// kernel: scenario I (no streams) is the fully idle, fully metered case.
func benchScenarioKernel(b *testing.B, scenario int, k sim.Kernel) {
	sc := traffic.Scenarios()[scenario]
	cfg := traffic.RunConfig{Cycles: b.N, FreqMHz: 25,
		Lib: stdcell.Default013(), Kernel: k}
	b.ResetTimer()
	if _, err := traffic.RunCircuit(sc, traffic.Pattern{FlipProb: 0.5, Load: 1}, cfg); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkScenarioIActiveKernel measures the static-offset scenario
// under the production kernel: the assembly is quiescent every cycle,
// only the meter tick remains.
func BenchmarkScenarioIActiveKernel(b *testing.B) { benchScenarioKernel(b, 0, sim.KernelActive) }

// BenchmarkScenarioINaiveKernel is its evaluate-everything baseline.
func BenchmarkScenarioINaiveKernel(b *testing.B) { benchScenarioKernel(b, 0, sim.KernelNaive) }

// BenchmarkScenarioIVActiveKernel measures the fully loaded scenario
// under the production kernel (nothing to skip; overhead bound).
func BenchmarkScenarioIVActiveKernel(b *testing.B) { benchScenarioKernel(b, 3, sim.KernelActive) }

// BenchmarkScenarioIVNaiveKernel is its baseline.
func BenchmarkScenarioIVNaiveKernel(b *testing.B) { benchScenarioKernel(b, 3, sim.KernelNaive) }

// TestSparseMeshSkipRate pins the property behind the benchmark numbers
// deterministically: on the sparse 5×5 mesh (two single-hop streams, 21
// of 25 routers unconfigured) the production kernel must skip more than
// 75% of all component visits, and the streams must still flow.
func TestSparseMeshSkipRate(t *testing.T) {
	m := buildStreamMesh(t, sim.KernelActive, 5, 5, []int{0, 2}, 2)
	const cycles = 2000
	m.Run(cycles)
	w := m.World()
	total := w.Evals() + w.Skips()
	if total == 0 {
		t.Fatal("no component visits recorded")
	}
	if frac := float64(w.Skips()) / float64(total); frac < 0.75 {
		t.Fatalf("active kernel skipped only %.0f%% of visits (evals=%d skips=%d)",
			frac*100, w.Evals(), w.Skips())
	}
	for _, y := range []int{0, 2} {
		if got := m.At(mesh.Coord{X: 1, Y: y}).Rx[0].Received(); got == 0 {
			t.Fatalf("row %d delivered nothing under the active kernel", y)
		}
	}
}

// TestBENetKernelEquivalence drives the best-effort mesh (wormhole
// routers waking each other hop by hop) with bursty random traffic under
// both kernels and compares every delivery timestamp.
func TestBENetKernelEquivalence(t *testing.T) {
	type delivery struct {
		dst  [2]int
		sent uint64
		recv uint64
	}
	run := func(k sim.Kernel) []delivery {
		n := benet.New(4, 4, packetsw.DefaultParams(), sim.WithKernel(k))
		rng := bitvec.NewXorShift64(7)
		var out []delivery
		for c := 0; c < 1500; c++ {
			// A sparse burst roughly every 50 cycles from a random node.
			if rng.Bool(0.02) {
				src := mesh.Coord{X: rng.Intn(4), Y: rng.Intn(4)}
				dst := mesh.Coord{X: rng.Intn(4), Y: rng.Intn(4)}
				if src != dst {
					n.Send(benet.Message{Src: src, Dst: dst,
						Payload: []uint16{1, 2, 3, 4}})
				}
			}
			n.Step()
			for _, m := range n.Delivered() {
				out = append(out, delivery{
					dst: [2]int{m.Dst.X, m.Dst.Y}, sent: m.SentCycle, recv: m.RecvCycle,
				})
			}
		}
		return out
	}
	n := run(sim.KernelNaive)
	if len(n) == 0 {
		t.Fatal("no deliveries")
	}
	a := run(sim.KernelActive)
	if len(n) != len(a) {
		t.Fatalf("delivery counts differ: naive %d active %d", len(n), len(a))
	}
	for i := range n {
		if n[i] != a[i] {
			t.Fatalf("delivery %d differs: naive %+v active %+v", i, n[i], a[i])
		}
	}
}

// TestStreamMeshKernelEquivalence: the mesh harness delivers identical
// word counts under both kernels, for both the sparse and the
// mesh-crossing stream shapes.
func TestStreamMeshKernelEquivalence(t *testing.T) {
	for _, span := range []int{2, 5} {
		counts := func(k sim.Kernel) [2]uint64 {
			m := buildStreamMesh(t, k, 5, 5, []int{0, 2}, span)
			m.Run(2000)
			return [2]uint64{
				m.At(mesh.Coord{X: span - 1, Y: 0}).Rx[0].Received(),
				m.At(mesh.Coord{X: span - 1, Y: 2}).Rx[0].Received(),
			}
		}
		if n, a := counts(sim.KernelNaive), counts(sim.KernelActive); n != a {
			t.Fatalf("span %d: kernels disagree: naive %v active %v", span, n, a)
		}
	}
}

// benchFiniteWorkload runs the retired-source finite workload: scenario
// IV with a 100-word budget per stream inside a 20000-cycle window. The
// sources retire within ~600 cycles; the remaining ~97% of the run is
// dead time the production kernel fast-forwards and the naive kernel
// steps through.
func benchFiniteWorkload(b *testing.B, k sim.Kernel) {
	sc := traffic.Scenarios()[3]
	pat := traffic.Pattern{FlipProb: 0.5, Load: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := traffic.RunConfig{Cycles: 20000, FreqMHz: 25,
			Lib: stdcell.Default013(), Kernel: k, WordsPerStream: 100}
		if _, err := traffic.RunCircuit(sc, pat, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFiniteWorkloadActiveKernel is the acceptance benchmark for
// fast-forward (see TestFiniteWorkloadFastForward for the deterministic
// counterpart of the claim).
func BenchmarkFiniteWorkloadActiveKernel(b *testing.B) { benchFiniteWorkload(b, sim.KernelActive) }

// BenchmarkFiniteWorkloadNaiveKernel is the evaluate-everything baseline.
func BenchmarkFiniteWorkloadNaiveKernel(b *testing.B) { benchFiniteWorkload(b, sim.KernelNaive) }

// benchPattern16 runs the acceptance pattern workload: a sparse
// (0.05 flits/cycle/node) 16×16 uniform-random pattern whose flows
// retire after 4 words inside a 20000-cycle window. The sources drain
// within the first few hundred cycles; the rest of the run is dead time
// the production kernel fast-forwards. The acceptance claim (≥5× fewer
// visits than polling every component through it) is pinned
// deterministically by TestPatternSparse16x16EventSpeedup in the noc
// package; this benchmark provides the wall-clock numbers for the
// BENCH_ci artifact.
func benchPattern16(b *testing.B, k sim.Kernel) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := mesh.RunPattern(mesh.PatternConfig{
			W: 16, H: 16, Cycles: 20000, FreqMHz: 25,
			Lib:       stdcell.Default013(),
			Spatial:   pattern.Spatial{Kind: pattern.Uniform},
			Injection: pattern.Injection{Proc: pattern.Bernoulli, Rate: 0.05},
			FlipProb:  0.5, Seed: 9, WordsPerFlow: 4, Kernel: k,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.WordsDelivered == 0 {
			b.Fatal("pattern run delivered nothing")
		}
	}
}

// BenchmarkPattern16x16ActiveKernel is the production-kernel side of
// the pattern acceptance comparison.
func BenchmarkPattern16x16ActiveKernel(b *testing.B) { benchPattern16(b, sim.KernelActive) }

// benchPatternHotspot runs the admission-limited sparse hotspot
// pattern under the given kernel: hotspot:1 routes every flow at the
// mesh centre, whose lanes admit only a handful, so most of the mesh
// holds no circuit and latches asleep. The continuous low-rate
// injection never drains, so the world cannot fast-forward — the
// production kernel parks the dormant assemblies and sweeps only the
// live rim. TestPatternSparse16x16ActivePolls (noc package) pins the
// ≥5× poll reduction deterministically; these benchmarks record the
// wall-clock counterpart at both mesh scales.
func benchPatternHotspot(b *testing.B, w, h, cycles int, k sim.Kernel) {
	for i := 0; i < b.N; i++ {
		res, err := mesh.RunPattern(mesh.PatternConfig{
			W: w, H: h, Cycles: cycles, FreqMHz: 25,
			Lib:       stdcell.Default013(),
			Spatial:   pattern.Spatial{Kind: pattern.Hotspot, Alpha: 1},
			Injection: pattern.Injection{Proc: pattern.Bernoulli, Rate: 0.05},
			FlipProb:  0.5, Seed: 9, Kernel: k,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.WordsDelivered == 0 {
			b.Fatal("pattern run delivered nothing")
		}
	}
}

// BenchmarkHotspot16x16ActiveKernel is the 16×16 parked-set benchmark.
func BenchmarkHotspot16x16ActiveKernel(b *testing.B) {
	benchPatternHotspot(b, 16, 16, 10000, sim.KernelActive)
}

// BenchmarkHotspot64x64ActiveKernel is the benchmark at the large scale:
// 4096 assemblies, nearly all parked.
func BenchmarkHotspot64x64ActiveKernel(b *testing.B) {
	benchPatternHotspot(b, 64, 64, 20000, sim.KernelActive)
}

// BenchmarkHotspot64x64ShortActiveKernel pins the short-run case where
// setup, not simulation, is the bill: ~4k hotspot flows all probing
// routes to the same saturated centre. The lane allocator's endpoint
// admission check rejects a doomed flow in O(1) instead of walking two
// mesh-radius routes, which cut this benchmark ~3× — the fixed cost
// every cell of a short-cycle sweep pays.
func BenchmarkHotspot64x64ShortActiveKernel(b *testing.B) {
	benchPatternHotspot(b, 64, 64, 500, sim.KernelActive)
}

// BenchmarkHotspot32Setup measures what building the nocperf hotspot32
// circuit run costs: its inputs (hotspot:1, bernoulli:0.05, 32×32,
// 25 MHz) through mesh.RunPattern for one cycle, so the mesh, its
// meters, the lane book and 1,024 admission decisions are the bill.
// Its allocations are the figure to watch: the mesh is built from one
// allocation per kind of state, plus two wake closures per node.
func BenchmarkHotspot32Setup(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := mesh.RunPattern(mesh.PatternConfig{
			W: 32, H: 32, Cycles: 1, FreqMHz: 25,
			Lib:       stdcell.Default013(),
			Spatial:   pattern.Spatial{Kind: pattern.Hotspot, Alpha: 1},
			Injection: pattern.Injection{Proc: pattern.Bernoulli, Rate: 0.05},
			FlipProb:  0.5, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.FlowsEstablished == 0 {
			b.Fatal("no flow established")
		}
	}
}

// benchPatternSource measures one event-scheduled source alone: the
// per-cycle cost of the generator layer itself, per simulated cycle.
func benchPatternSource(b *testing.B, k sim.Kernel, inj pattern.Injection) {
	w := sim.NewWorld(sim.WithKernel(k))
	src := pattern.NewSource(inj, 1, 0)
	src.Emit = func() bool { return true }
	w.Add(src)
	b.ResetTimer()
	w.Run(b.N)
}

// BenchmarkPatternSourcePoissonActiveKernel: a sparse Poisson source
// under the production kernel fast-forwards between arrivals.
func BenchmarkPatternSourcePoissonActiveKernel(b *testing.B) {
	benchPatternSource(b, sim.KernelActive, pattern.Injection{Proc: pattern.Poisson, Rate: 0.01})
}

// BenchmarkPatternSourceOnOffActiveKernel: the bursty two-state process,
// where fast-forward windows alternate with back-to-back bursts.
func BenchmarkPatternSourceOnOffActiveKernel(b *testing.B) {
	benchPatternSource(b, sim.KernelActive, pattern.Injection{Proc: pattern.OnOff, Rate: 0.05, Burstiness: 8})
}

// gatedKernelVisits is the component visit count of the finite workload
// below under the retired gated kernel, which polled all 7 components on
// every one of the 20000 cycles — measured on that kernel before it was
// folded into the production kernel, and pinned here as the bound's
// reference.
const gatedKernelVisits = 140000

// TestFiniteWorkloadFastForward pins the property behind the finite
// workload benchmark deterministically, so the claim does not rest on
// wall-clock noise: on the finite workload the production kernel must
// cover >90% of all cycles with fast-forward windows, execute <20% of
// the per-cycle polling kernel's component visits (gatedKernelVisits),
// and still deliver the naive kernel's results.
func TestFiniteWorkloadFastForward(t *testing.T) {
	sc := traffic.Scenarios()[3]
	pat := traffic.Pattern{FlipProb: 0.5, Load: 1}
	type stats struct {
		ffCycles uint64
		cycles   uint64
		visits   uint64 // components actually visited (evals + per-cycle skips)
		res      traffic.Result
	}
	run := func(k sim.Kernel) stats {
		var st stats
		cfg := traffic.RunConfig{Cycles: 20000, FreqMHz: 25,
			Lib: stdcell.Default013(), Kernel: k, WordsPerStream: 100,
			Observe: func(w *sim.World) {
				_, st.ffCycles = w.FastForwards()
				st.cycles = w.Cycle()
				st.visits = w.Evals() + w.Skips() - st.ffCycles*uint64(w.Components())
			}}
		res, err := traffic.RunCircuit(sc, pat, cfg)
		if err != nil {
			t.Fatal(err)
		}
		st.res = res
		return st
	}
	ac, nv := run(sim.KernelActive), run(sim.KernelNaive)
	if !reflect.DeepEqual(ac.res, nv.res) {
		t.Fatalf("kernels disagree:\nactive: %+v\nnaive:  %+v", ac.res, nv.res)
	}
	if frac := float64(ac.ffCycles) / float64(ac.cycles); frac < 0.9 {
		t.Fatalf("active kernel fast-forwarded only %.0f%% of the run (%d of %d cycles)",
			frac*100, ac.ffCycles, ac.cycles)
	}
	if ac.visits*5 > gatedKernelVisits {
		t.Fatalf("active kernel visited %d component slots, per-cycle polling %d — less than the 5x reduction the benchmark claims",
			ac.visits, gatedKernelVisits)
	}
}

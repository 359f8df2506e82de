# Convenience targets; CI runs the same commands.

NOCVET := $(CURDIR)/bin/nocvet

# BENCH_BASE is the tracked benchmark baseline the regression gate
# compares against; bump the number when re-baselining on purpose.
BENCH_BASE := BENCH_20.json

.PHONY: build test race vet nocvet bench bench-json benchdiff

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

# vet runs the stock vet plus the repo's own determinism/kernel-contract
# analyzers (cmd/nocvet) over every package.
vet: nocvet
	go vet ./...
	go vet -vettool=$(NOCVET) ./...

nocvet:
	@mkdir -p bin
	go build -o $(NOCVET) ./cmd/nocvet

bench:
	go test -bench . -benchtime 1x -run '^$$' ./...

# bench-json runs the gating 1x pass plus the measured component,
# kernel, fast-forward, pattern and sweep passes, then folds the
# combined text into the canonical BENCH_ci.json (cmd/benchdiff -parse
# keeps the line with the most iterations per benchmark, and among equal
# counts the fastest). Gated benchmarks whose single-shot spread approaches
# their gate threshold run with -count so the best-of-N line wins — the
# 2% tracer-nil pair gate in particular needs the sub-30ms pair
# measured more than once. The component passes (circuit and packet
# routers, converter, assembly, and the assembly as a mid-path router
# passing a word every 20 cycles) run at fixed counts with -benchmem:
# one cold 1x iteration reads them 10-100x high. The core pass includes
# internal/packetsw, whose BenchmarkRouterStepMetered shares a gated
# name, and its BenchmarkRouterStepSaturated. The best-effort mesh
# experiment, BenchmarkBELoad, runs again at a fixed count with -benchmem
# to record its allocations; like the other experiment benchmarks it
# stays out of the gate. The set-up pass times building the hotspot32
# circuit run (BenchmarkHotspot32Setup) and the 64×64 port-flow
# projection (BenchmarkPortFlows64x64) at fixed counts with -benchmem;
# both gate. The PatternSource benchmarks time one source per simulated
# cycle, so they run over 2,000,000 cycles: over a handful of cycles
# the timer's own overhead is most of what they read. The kernel,
# pattern, sweep and hotspot passes record their allocations too. CI archives the file and gates it against
# $(BENCH_BASE) via `make benchdiff`.
bench-json:
	go test -bench . -benchtime 1x -run '^$$' ./... | tee bench.txt
	go test -bench '^Benchmark(RouterStep|RouterStepMetered|RouterStepSaturated|AssemblyStep|AssemblyPassThrough)$$' -benchtime 200000x -benchmem -count 3 -run '^$$' ./internal/core ./internal/packetsw | tee -a bench.txt
	go test -bench '^Benchmark(CircuitRouterCycle|PacketRouterCycle|BERouterFlit|ConverterRoundTrip)$$' -benchtime 20000x -benchmem -count 3 -run '^$$' . | tee -a bench.txt
	go test -bench '(Mesh|Scenario).*Kernel' -benchtime 20000x -benchmem -run '^$$' . | tee -a bench.txt
	go test -bench 'MeshSparse(Active|TracerNil)Kernel' -benchtime 20000x -benchmem -count 6 -run '^$$' . | tee -a bench.txt
	go test -bench 'FiniteWorkload' -benchtime 50x -benchmem -run '^$$' . | tee -a bench.txt
	go test -bench 'Pattern16' -benchtime 5x -benchmem -run '^$$' . | tee -a bench.txt
	go test -bench 'PatternSource' -benchtime 2000000x -benchmem -count 6 -run '^$$' . | tee -a bench.txt
	go test -bench 'Sweep(Single|Replicated)' -benchtime 20x -benchmem -count 4 -run '^$$' . | tee -a bench.txt
	go test -bench 'SweepOverlap' -benchtime 5x -benchmem -run '^$$' . | tee -a bench.txt
	go test -bench 'Hotspot(16x16|64x64)' -benchtime 2x -benchmem -run '^$$' . | tee -a bench.txt
	go test -bench '^Benchmark(Hotspot32Setup|PortFlows64x64)$$' -benchtime 20x -benchmem -count 3 -run '^$$' . ./internal/pattern | tee -a bench.txt
	go test -bench '^BenchmarkBELoad$$' -benchtime 5x -benchmem -count 3 -run '^$$' . | tee -a bench.txt
	go run ./cmd/benchdiff -parse bench.txt -out BENCH_ci.json

# benchdiff gates the current canonical figures against the tracked
# baseline: >15% ns/op growth (or a vanished benchmark) on the
# component/kernel/sweep/pattern/set-up benchmarks fails. Every kernel
# and pattern benchmark name ends in "Kernel"; the sweep-engine
# benchmarks — including the cache's warm/cold overlap pair — and the
# fixed-count component and set-up benchmarks are named explicitly, the
# latter anchored so that only measured names gate (-match sees names,
# not packages).
# Experiment benchmarks measured only at 1x (table/figure regeneration)
# are too noisy to gate and stay out.
#
# The second invocation gates the observability layer's disabled-tracer
# overhead within the same bench run: the nil-tracer kernel twin must
# stay within 2% of its untouched twin (host-speed drift cancels out).
benchdiff:
	go run ./cmd/benchdiff -base $(BENCH_BASE) -cur BENCH_ci.json -match 'Kernel$$|SweepSingleRun|SweepReplicated|SweepOverlap|^Benchmark(RouterStep|RouterStepMetered|RouterStepSaturated|AssemblyStep|AssemblyPassThrough|CircuitRouterCycle|PacketRouterCycle|BERouterFlit|ConverterRoundTrip|Hotspot32Setup|PortFlows64x64)$$'
	go run ./cmd/benchdiff -cur BENCH_ci.json -threshold 0.02 -pair 'BenchmarkMeshSparseTracerNilKernel=BenchmarkMeshSparseActiveKernel'

# Convenience targets; CI runs the same commands.

NOCVET := $(CURDIR)/bin/nocvet

# BENCH_BASE is the tracked benchmark baseline the regression gate
# compares against; bump the number when re-baselining on purpose.
BENCH_BASE := BENCH_12.json

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
# kernel, event, pattern and sweep passes, then folds the combined text
# into the canonical BENCH_ci.json (cmd/benchdiff -parse keeps the
# line with the most iterations per benchmark, and among equal counts
# the fastest). Gated benchmarks whose single-shot spread approaches
# their gate threshold run with -count so the best-of-N line wins — the
# 2% tracer-nil pair gate in particular needs the sub-30ms pair
# measured more than once. The component passes (circuit and packet
# routers, converter, assembly) run at fixed counts with -benchmem: one
# cold 1x iteration reads them 10-100x high. The core pass includes
# internal/packetsw, whose BenchmarkRouterStepMetered shares a gated
# name, and its BenchmarkRouterStepSaturated. CI archives the file and
# gates it against $(BENCH_BASE) via `make benchdiff`.
bench-json:
	go test -bench . -benchtime 1x -run '^$$' ./... | tee bench.txt
	go test -bench '^Benchmark(RouterStep|RouterStepMetered|RouterStepSaturated|AssemblyStep)$$' -benchtime 200000x -benchmem -count 3 -run '^$$' ./internal/core ./internal/packetsw | tee -a bench.txt
	go test -bench '^Benchmark(CircuitRouterCycle|PacketRouterCycle|BERouterFlit|Mesh4x4Cycle|ConverterRoundTrip)$$' -benchtime 20000x -benchmem -count 3 -run '^$$' . | tee -a bench.txt
	go test -bench '(Mesh|Scenario).*Kernel' -benchtime 20000x -run '^$$' . | tee -a bench.txt
	go test -bench 'MeshSparse(Gated|TracerNil)Kernel' -benchtime 20000x -count 6 -run '^$$' . | tee -a bench.txt
	go test -bench 'FiniteWorkload|BEBurst' -benchtime 50x -run '^$$' . | tee -a bench.txt
	go test -bench 'Pattern16|PatternSource' -benchtime 5x -run '^$$' . | tee -a bench.txt
	go test -bench 'PatternSource' -benchtime 5x -count 6 -run '^$$' . | tee -a bench.txt
	go test -bench 'Sweep(Single|Replicated)' -benchtime 20x -count 4 -run '^$$' . | tee -a bench.txt
	go test -bench 'SweepOverlap' -benchtime 5x -run '^$$' . | tee -a bench.txt
	go test -bench 'Hotspot(16x16|64x64)' -benchtime 2x -run '^$$' . | tee -a bench.txt
	go run ./cmd/benchdiff -parse bench.txt -out BENCH_ci.json

# benchdiff gates the current canonical figures against the tracked
# baseline: >15% ns/op growth (or a vanished benchmark) on the
# component/kernel/sweep/pattern benchmarks fails. Every kernel and
# pattern benchmark name ends in "Kernel"; the sweep-engine benchmarks —
# including the cache's warm/cold overlap pair — and the fixed-count
# component benchmarks are named explicitly, the latter anchored so
# that only measured names gate (-match sees names, not packages).
# Experiment benchmarks measured only at 1x (table/figure regeneration)
# are too noisy to gate and stay out.
#
# The second invocation gates the observability layer's disabled-tracer
# overhead within the same bench run: the nil-tracer kernel twin must
# stay within 2% of its untouched twin (host-speed drift cancels out).
benchdiff:
	go run ./cmd/benchdiff -base $(BENCH_BASE) -cur BENCH_ci.json -match 'Kernel$$|SweepSingleRun|SweepReplicated|SweepOverlap|^Benchmark(RouterStep|RouterStepMetered|RouterStepSaturated|AssemblyStep|CircuitRouterCycle|PacketRouterCycle|BERouterFlit|Mesh4x4Cycle|ConverterRoundTrip)$$'
	go run ./cmd/benchdiff -cur BENCH_ci.json -threshold 0.02 -pair 'BenchmarkMeshSparseTracerNilKernel=BenchmarkMeshSparseGatedKernel'

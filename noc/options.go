package noc

import (
	"fmt"
	"io"

	"repro/internal/sim"
)

// Kernel selects the simulation kernel a fabric runs its worlds on.
type Kernel string

const (
	// KernelActive is the production kernel and the default: quiescent
	// components — unconfigured routers, drained converters, sources
	// between emissions — are skipped each cycle, dormant routers are
	// parked out of the per-cycle sweep until a configuration write
	// wakes them, and windows in which every component is quiescent are
	// fast-forwarded. The software analogue of the paper's clock gating;
	// results are byte-identical to KernelNaive.
	KernelActive Kernel = "active"
	// KernelNaive evaluates every component every cycle. It is the oracle
	// the production kernel is checked against (the CI byte-compares)
	// and the baseline its speedup is measured from.
	KernelNaive Kernel = "naive"
)

// ParseKernel resolves a kernel name; the empty string means the default,
// KernelActive. Unknown names are rejected with the valid kernels listed
// — a typoed kernel fails loudly instead of silently running the
// default.
func ParseKernel(s string) (Kernel, error) {
	switch Kernel(s) {
	case "", KernelActive:
		return KernelActive, nil
	case KernelNaive:
		return KernelNaive, nil
	default:
		return "", fmt.Errorf("noc: unknown kernel %q (have %s, %s)", s, KernelActive, KernelNaive)
	}
}

// Option tunes a fabric away from the paper's default configuration:
// each sets one FabricSpec field, or one of WithNodeTrace's depth, the
// simulation kernel and the run-time hooks. Options that do not apply
// to a fabric are ignored by it (e.g. WithBufferDepth on the
// circuit-switched fabric, which has no buffers). Invalid values are
// reported by Fabric.Validate, not at option time.
type Option func(*fabric)

// WithLanes sets the circuit-switched router's lane count per port
// (paper: 4). Streams occupy lane ID-1, so a scenario's highest stream
// ID must not exceed the lane count.
func WithLanes(n int) Option { return func(f *fabric) { f.Lanes = n } }

// WithVirtualChannels sets the packet-switched router's VC count per
// input port (paper: 4).
func WithVirtualChannels(n int) Option { return func(f *fabric) { f.VCs = n } }

// WithBufferDepth sets the packet-switched per-VC FIFO depth in flits
// (paper: 8).
func WithBufferDepth(flits int) Option { return func(f *fabric) { f.BufferDepth = flits } }

// WithSlots sets the TDM slot-table length (Æthereal default: 32).
func WithSlots(n int) Option { return func(f *fabric) { f.Slots = n } }

// WithBEDepth sets the TDM router's per-port best-effort FIFO depth in
// words (default: 16).
func WithBEDepth(words int) Option { return func(f *fabric) { f.BEDepth = words } }

// WithClockGating enables the circuit-switched router's
// configuration-driven clock gating — the paper's Section 8 future work.
func WithClockGating(on bool) Option { return func(f *fabric) { f.Gated = on } }

// WithLibraryCorner selects the 0.13 µm technology corner: "nominal"
// (the paper's LVT calibration, default) or "hvt" (low leakage).
func WithLibraryCorner(corner string) Option { return func(f *fabric) { f.Corner = corner } }

// WithLatencyWords sets how many timed word deliveries the latency
// measurement of the circuit and packet fabrics collects per
// single-router stream run (default 200); 0 disables that measurement,
// and a negative count is an error. The TDM fabric measures latency
// in-run and ignores the count.
func WithLatencyWords(n int) Option { return func(f *fabric) { f.LatencyWords = &n } }

// WithNodeTrace records up to the given number of cycles of node (0,0)'s
// lane signals during a workload run, returned as a VCD waveform in
// Result.NodeVCD. Zero (the default) disables tracing.
func WithNodeTrace(cycles int) Option { return func(f *fabric) { f.traceCycles = cycles } }

// WithKernel selects the simulation kernel (default KernelActive).
// Results are byte-identical under both kernels; they differ only in
// speed. The naive kernel evaluates everything and exists for
// verification. Every simulation is single-threaded; parallelism comes
// from the sweep pool, one run per worker.
func WithKernel(k Kernel) Option { return func(f *fabric) { f.kernel = k } }

// WithCache enables the content-addressed result cache in directory
// dir (created if missing): every single run (including each
// replication of a replicated run) is keyed by a canonical hash of its
// fully resolved configuration, seed and a code-version fingerprint,
// and a repeated run is served from the directory byte-identically
// instead of re-simulating, in this process or a later one. Caches for
// the same directory are shared within the process; Validate rejects
// an empty dir. The cache reuses whole runs only: a run that differs
// from a cached one in any key field (its length included) simulates
// from cycle 0. With WithMetrics, Result.Metrics reports the lookup as
// cache.hits or cache.misses. See also SweepSpec.CacheDir and the
// `nocbench -cache` flag.
func WithCache(dir string) Option {
	return func(f *fabric) { f.cacheOn, f.cacheDir = true, dir }
}

// resolveCache returns the cache instance the fabric selects: an
// injected instance first, then the registry instance for the
// configured directory, else nil (caching off).
func (f fabric) resolveCache() (*Cache, error) {
	if f.cache != nil {
		return f.cache, nil
	}
	if !f.cacheOn {
		return nil, nil
	}
	return OpenCache(f.cacheDir)
}

// WithTrace streams a structured event trace of every run to w as
// Chrome trace-event JSON, openable in Perfetto (ui.perfetto.dev) or
// chrome://tracing: one process per sweep cell or replication, one
// thread per traced component or kernel track, one instant event per
// injection, delivery, flow setup, admission block, cache hit or kernel
// scheduling action. Events are timestamped in simulated cycles — never
// wall clock — so the trace of a given configuration is deterministic
// and diffable, and enabling tracing never changes the Result (the
// byte-identity the CI trace-replay step enforces). With a nil writer
// tracing stays disabled; the hot path then costs one nil check per
// event site.
func WithTrace(w io.Writer) Option { return func(f *fabric) { f.trace = w } }

// WithMetrics attaches a typed metrics registry to every run and
// publishes its deterministic sorted snapshot as Result.Metrics:
// kernel scheduling gauges, the circuit mesh's lane-allocator
// probe/rejection counters and hop histogram, and the result cache's
// traffic. The field is excluded from the JSON wire format, so enabling
// metrics never changes Result output bytes.
func WithMetrics(on bool) Option { return func(f *fabric) { f.metricsOn = on } }

// withWorldObserver installs a test-only hook that receives a run's
// simulation world after it finishes — fast-forward and activity
// counters for kernel tests and benchmarks. Supported by the pattern
// runs and the TDM runner; the observer must not mutate the world.
func withWorldObserver(fn func(*sim.World)) Option {
	return func(f *fabric) { f.worldObserver = fn }
}

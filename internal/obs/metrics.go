package obs

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// Registry is a typed metrics registry: counters, gauges and histograms
// keyed by name, with a deterministic sorted Snapshot. Get-or-create
// accessors are safe for concurrent use, but hot paths should hoist the
// returned instrument once at construction time and guard each use with
// a call-site nil check (the obspure contract) so a disabled registry
// costs nothing.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. A nil
// registry returns a nil counter, whose methods are no-ops, so disabled
// metrics need no special-casing beyond the call-site nil check.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkName(name, "counter")
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkName(name, "gauge")
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkName(name, "histogram")
	h := r.hists[name]
	if h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// checkName panics when name is already registered under another kind —
// a wiring bug that would otherwise silently split the metric.
func (r *Registry) checkName(name, kind string) {
	have := ""
	if _, ok := r.counters[name]; ok {
		have = "counter"
	} else if _, ok := r.gauges[name]; ok {
		have = "gauge"
	} else if _, ok := r.hists[name]; ok {
		have = "histogram"
	}
	if have != "" && have != kind {
		panic(fmt.Sprintf("obs: metric %q already registered as a %s, requested as %s", name, have, kind))
	}
}

// Counter is a monotonically increasing uint64, safe for concurrent
// Add calls (a sweep shares one registry across cells running on
// several workers).
type Counter struct{ v atomic.Uint64 }

// Add increments the counter; no-op on a nil counter.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count; 0 on a nil counter.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value-wins signed level.
type Gauge struct{ v atomic.Int64 }

// Set records the gauge's current level; no-op on a nil gauge.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Value returns the gauge's level; 0 on a nil gauge.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram counts observations in power-of-two buckets: bucket i holds
// values whose bit length is i (bucket 0 holds zero), so the 65 buckets
// cover the full uint64 range with no configuration.
type Histogram struct {
	mu      sync.Mutex
	count   uint64
	sum     uint64
	buckets [65]uint64
}

// Observe records one value; no-op on a nil histogram.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.count++
	h.sum += v
	h.buckets[bits.Len64(v)]++
	h.mu.Unlock()
}

// Bucket is one non-empty histogram bucket: Count observations with
// values <= Le (and greater than the previous bucket's Le).
type Bucket struct {
	Le    uint64 `json:"le"`
	Count uint64 `json:"count"`
}

// Sample is one metric in a deterministic snapshot.
type Sample struct {
	// Name is the metric name.
	Name string `json:"name"`
	// Kind is "counter", "gauge" or "histogram".
	Kind string `json:"kind"`
	// Value is the counter value, the gauge level, or the histogram's
	// observation count.
	Value int64 `json:"value"`
	// Sum is the histogram's observation sum; 0 otherwise.
	Sum uint64 `json:"sum,omitempty"`
	// Buckets are the histogram's non-empty buckets in ascending order;
	// nil otherwise.
	Buckets []Bucket `json:"buckets,omitempty"`
}

// bucketLe returns bucket i's inclusive upper bound.
func bucketLe(i int) uint64 {
	if i >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << i) - 1
}

// Snapshot returns every registered metric as a Sample, sorted by name —
// the deterministic surface Result.Metrics exposes. A nil registry
// snapshots to nil.
func (r *Registry) Snapshot() []Sample {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	for name := range r.counters {
		names = append(names, name)
	}
	for name := range r.gauges {
		names = append(names, name)
	}
	for name := range r.hists {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]Sample, 0, len(names))
	for _, name := range names {
		switch {
		case r.counters[name] != nil:
			out = append(out, Sample{Name: name, Kind: "counter", Value: int64(r.counters[name].Value())})
		case r.gauges[name] != nil:
			out = append(out, Sample{Name: name, Kind: "gauge", Value: r.gauges[name].Value()})
		default:
			h := r.hists[name]
			h.mu.Lock()
			s := Sample{Name: name, Kind: "histogram", Value: int64(h.count), Sum: h.sum}
			for i, n := range h.buckets {
				if n > 0 {
					s.Buckets = append(s.Buckets, Bucket{Le: bucketLe(i), Count: n})
				}
			}
			h.mu.Unlock()
			out = append(out, s)
		}
	}
	return out
}

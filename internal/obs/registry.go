package obs

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter registered with a
// Registry for Prometheus exposition.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current counter value.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Registry is a named collection of histograms, counters and read-through
// metric functions. Lookups are get-or-create and idempotent by name, so
// independently wired subsystems (the HTTP handler, the ingest loop, the
// shard router) sharing one Registry converge on the same underlying
// instruments. All methods are safe for concurrent use; instrument handles
// obtained from a Registry are used lock-free afterwards.
type Registry struct {
	mu       sync.Mutex
	hists    map[string]*Histogram
	counters map[string]*Counter
	cfuncs   map[string]func() uint64
	gfuncs   map[string]func() float64
}

// NewRegistry returns an empty Registry.
func NewRegistry() *Registry {
	return &Registry{
		hists:    make(map[string]*Histogram),
		counters: make(map[string]*Counter),
		cfuncs:   make(map[string]func() uint64),
		gfuncs:   make(map[string]func() float64),
	}
}

// Histogram returns the histogram registered under name, creating it on
// first use. The returned pointer is stable for the life of the Registry.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Counter returns the counter registered under name, creating it on first
// use. The returned pointer is stable for the life of the Registry.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// CounterFunc registers fn as a counter read at exposition time. It lets
// pre-existing atomic counters (request totals, error totals) surface in
// the Prometheus output without double-counting into a second variable.
// Re-registering a name replaces the previous function.
func (r *Registry) CounterFunc(name string, fn func() uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cfuncs[name] = fn
}

// GaugeFunc registers fn as a gauge read at exposition time (heap size,
// ring occupancy, current weight — values that move both ways).
// Re-registering a name replaces the previous function.
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gfuncs[name] = fn
}

// histSnapshot returns name-sorted histogram instruments for rendering.
func (r *Registry) histSnapshot() ([]string, []*Histogram) {
	r.mu.Lock()
	names := make([]string, 0, len(r.hists))
	for n := range r.hists {
		names = append(names, n)
	}
	sort.Strings(names)
	hs := make([]*Histogram, len(names))
	for i, n := range names {
		hs[i] = r.hists[n]
	}
	r.mu.Unlock()
	return names, hs
}

// scalarSample is one rendered counter or gauge value.
type scalarSample struct {
	name string
	u    uint64
	f    float64
}

// scalarSnapshot returns name-sorted counter and gauge samples, folding
// Counter instruments and CounterFuncs into one counter namespace.
func (r *Registry) scalarSnapshot() (counters, gauges []scalarSample) {
	r.mu.Lock()
	for n, c := range r.counters {
		counters = append(counters, scalarSample{name: n, u: c.Value()})
	}
	for n, fn := range r.cfuncs {
		counters = append(counters, scalarSample{name: n, u: fn()})
	}
	for n, fn := range r.gfuncs {
		gauges = append(gauges, scalarSample{name: n, f: fn()})
	}
	r.mu.Unlock()
	sort.Slice(counters, func(i, j int) bool { return counters[i].name < counters[j].name })
	sort.Slice(gauges, func(i, j int) bool { return gauges[i].name < gauges[j].name })
	return counters, gauges
}

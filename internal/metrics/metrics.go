// Package metrics is the runtime observability substrate every protocol
// layer reports into: counters, gauges, and fixed-bucket histograms keyed by
// a small name registry.
//
// Design constraints, in order:
//
//  1. Allocation-free on the hot path. Instruments are registered once at
//     construction time (the only allocating step); Inc/Set/Observe touch
//     only pre-allocated atomics, so the bench engine's micro-benchmarks
//     (scheduler churn, pipe send/deliver) stay at 0 allocs/op with metrics
//     compiled in and enabled.
//  2. Safe under the bench engine's worker pool and the live driver's
//     HTTP exposition. All instrument state is atomic: concurrent writers
//     (parallel runs sharing a registry, deliberately) and concurrent
//     readers (/metrics scrapes mid-run) need no locks.
//  3. Nil-safe end to end. A nil *Registry hands out nil instruments, and
//     every instrument method is a no-op on a nil receiver, so protocol
//     code instruments unconditionally and pays one predictable branch
//     when observability is off.
//
// Snapshot freezes a registry into plain maps for JSON export (the bench
// harness attaches one per run); WritePrometheus renders the text
// exposition format the live endpoint serves.
package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing count. The zero value is ready;
// a nil Counter ignores writes and reads as zero.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value-wins instantaneous measurement. A nil Gauge
// ignores writes and reads as zero.
type Gauge struct {
	bits atomic.Uint64
}

// Set records the current value.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the last value set.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket histogram: bucket i counts observations
// v <= bounds[i], with one implicit +Inf bucket past the last bound.
// Bounds are fixed at registration so Observe never allocates. A nil
// Histogram ignores observations.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1
	n      atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-updated
}

func newHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Linear scan: bucket counts are small (≲32) and the branch pattern is
	// stable, so this beats binary search on the hot path.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.n.Add(1)
	for {
		old := h.sum.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nw) {
			return
		}
	}
}

// N returns the number of observations.
func (h *Histogram) N() uint64 {
	if h == nil {
		return 0
	}
	return h.n.Load()
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Mean returns the mean observation, or 0 with none.
func (h *Histogram) Mean() float64 {
	n := h.N()
	if n == 0 {
		return 0
	}
	return h.Sum() / float64(n)
}

// ExpBuckets returns n upper bounds growing geometrically from start by
// factor: the standard shape for duration histograms spanning decades.
func ExpBuckets(start, factor float64, n int) []float64 {
	if n <= 0 || start <= 0 || factor <= 1 {
		return nil
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// Registry maps metric names to instruments. Registration (the Counter /
// Gauge / Histogram accessors) is get-or-create under a mutex; the returned
// pointers are stable for the registry's lifetime, so callers hold them and
// never touch the map again. A nil *Registry returns nil instruments,
// making instrumentation free to leave unconditionally in place.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the counter registered under name, creating it on first
// use. Nil receiver returns nil.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it with
// the given bucket bounds on first use. Later callers get the existing
// instrument regardless of the bounds they pass (first registration wins).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// HistogramSnapshot is a frozen histogram: Counts[i] observations fell at
// or below Bounds[i]; the final element of Counts is the +Inf bucket.
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
	Count  uint64    `json:"count"`
	Sum    float64   `json:"sum"`
}

// Snapshot is a frozen, plain-data view of a registry, suitable for JSON
// export and cross-run comparison. Map JSON marshalling sorts keys, so the
// serialized form is deterministic.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot freezes the registry's current values. Safe concurrently with
// writers; each instrument is read atomically (a snapshot taken mid-run is
// internally consistent per instrument, not across instruments).
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{}
	if len(r.counters) > 0 {
		s.Counters = make(map[string]uint64, len(r.counters))
		for name, c := range r.counters {
			s.Counters[name] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]float64, len(r.gauges))
		for name, g := range r.gauges {
			s.Gauges[name] = g.Value()
		}
	}
	if len(r.hists) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(r.hists))
		for name, h := range r.hists {
			hs := HistogramSnapshot{
				Bounds: h.bounds,
				Counts: make([]uint64, len(h.counts)),
				Count:  h.N(),
				Sum:    h.Sum(),
			}
			for i := range h.counts {
				hs.Counts[i] = h.counts[i].Load()
			}
			s.Histograms[name] = hs
		}
	}
	return s
}

// Counter returns the snapshotted value of a counter (0 if absent).
func (s Snapshot) Counter(name string) uint64 { return s.Counters[name] }

// JSON renders the snapshot as compact JSON with sorted keys.
func (s Snapshot) JSON() []byte {
	b, err := json.Marshal(s)
	if err != nil { // plain data: cannot happen
		panic(err)
	}
	return b
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4): counters with a _total-as-named convention,
// gauges, and histograms with cumulative le-labelled buckets.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	s := r.Snapshot()
	var err error
	p := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	for _, name := range sortedKeys(s.Counters) {
		p("# TYPE %s counter\n%s %d\n", name, name, s.Counters[name])
	}
	for _, name := range sortedKeys(s.Gauges) {
		p("# TYPE %s gauge\n%s %g\n", name, name, s.Gauges[name])
	}
	for _, name := range sortedKeys(s.Histograms) {
		h := s.Histograms[name]
		p("# TYPE %s histogram\n", name)
		var cum uint64
		for i, b := range h.Bounds {
			cum += h.Counts[i]
			p("%s_bucket{le=\"%g\"} %d\n", name, b, cum)
		}
		p("%s_bucket{le=\"+Inf\"} %d\n", name, h.Count)
		p("%s_sum %g\n", name, h.Sum)
		p("%s_count %d\n", name, h.Count)
	}
	return err
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

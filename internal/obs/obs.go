// Package obs is the process's observability layer: a dependency-free
// metrics subsystem (atomic counters, gauges, fixed-bucket histograms,
// and a registry of metric families, each unlabelled or with one label
// per instance) with Prometheus-text-format exposition and an opt-in
// HTTP listener that also wires expvar and pprof.
//
// The hot decode path (core.Scope, core.DecodePool) records into
// package-level metrics resolved from the Default registry at init
// time, so instrumentation costs one atomic op per event and zero
// allocations. Snapshot() returns a flat series-name→value map so
// tests and internal/eval can assert on counter deltas across a run,
// making the instrumentation itself testable.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative deltas are ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic instantaneous value that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add shifts the value by n.
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram counts observations into a fixed cumulative bucket layout
// (Prometheus histogram semantics: bucket i counts observations <=
// Buckets[i], plus an implicit +Inf bucket).
type Histogram struct {
	buckets []float64 // sorted upper bounds, +Inf excluded
	counts  []atomic.Int64
	count   atomic.Int64  // the implicit +Inf bucket
	sum     atomic.Uint64 // float64 bits, CAS-updated
}

// LatencyBuckets is the fixed layout for per-slot decode latencies, in
// seconds: 25 µs up to 100 ms, roughly exponential. A healthy real-time
// run keeps the mass far below one TTI (250 µs–1 ms).
var LatencyBuckets = []float64{
	25e-6, 50e-6, 100e-6, 250e-6, 500e-6,
	1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3,
}

func newHistogram(buckets []float64) *Histogram {
	bs := append([]float64(nil), buckets...)
	sort.Float64s(bs)
	return &Histogram{buckets: bs, counts: make([]atomic.Int64, len(bs))}
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	// Bucket counts are cumulative (Prometheus convention): v lands in
	// every bucket whose upper bound covers it.
	idx := sort.SearchFloat64s(h.buckets, v)
	for i := idx; i < len(h.counts); i++ {
		h.counts[i].Add(1)
	}
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Buckets returns the upper bounds and their cumulative counts (the
// +Inf bucket is the final Count()).
func (h *Histogram) Buckets() (bounds []float64, counts []int64) {
	bounds = append([]float64(nil), h.buckets...)
	counts = make([]int64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return bounds, counts
}

// metric is one registered series: a family's unlabelled instrument,
// or one of its labelled children.
type metric struct {
	labels string // the rendered label pair, label="value"; "" when unlabelled

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

// family is every series sharing one metric name: one help string, one
// kind and one label name, exposed under a single # HELP / # TYPE.
type family struct {
	name, help, kind, label string
	byValue                 map[string]*metric
	series                  []*metric // in registration order
}

// Registry is a collection of metric families. The zero value is not
// usable; use NewRegistry or the package Default, and With for a view
// that registers labelled children.
type Registry struct {
	*registry
	label, value string // the child every instrument registers as; "" unlabelled
}

type registry struct {
	mu       sync.RWMutex
	families map[string]*family
	order    []*family
}

// Default is the process-wide registry every package-level instrument
// registers into (Prometheus-style process semantics: metrics aggregate
// across all pipelines and scopes in the process).
var Default = NewRegistry()

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{registry: &registry{families: make(map[string]*family)}}
}

// With returns a view of r that registers every instrument as the child
// label="value" of its family, so one family (one # HELP / # TYPE)
// carries a series per instance. Every child of a family must use the
// same label name.
func (r *Registry) With(label, value string) *Registry {
	return &Registry{registry: r.registry, label: label, value: value}
}

// labelEscaper escapes a label value per the text exposition format.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func (r *Registry) register(name, help, kind string, build func() *metric) *metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, label: r.label, byValue: make(map[string]*metric)}
		r.families[name] = f
		r.order = append(r.order, f)
	} else if f.kind != kind || f.label != r.label {
		panic(fmt.Sprintf("obs: metric %q re-registered as %s{%s} (was %s{%s})", name, kind, r.label, f.kind, f.label))
	}
	if m, ok := f.byValue[r.value]; ok {
		return m
	}
	m := build()
	if r.label != "" {
		m.labels = r.label + `="` + labelEscaper.Replace(r.value) + `"`
	}
	f.byValue[r.value] = m
	f.series = append(f.series, m)
	return m
}

// seriesName is a series' exposition and Snapshot key: name, or
// name{labels} for a labelled child.
func seriesName(name, labels string) string {
	if labels == "" {
		return name
	}
	return name + "{" + labels + "}"
}

// Counter returns the named counter, creating it on first use.
// Re-registering an existing name (and label value) returns the same
// instrument.
func (r *Registry) Counter(name, help string) *Counter {
	return r.register(name, help, "counter", func() *metric {
		return &metric{counter: &Counter{}}
	}).counter
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.register(name, help, "gauge", func() *metric {
		return &metric{gauge: &Gauge{}}
	}).gauge
}

// Histogram returns the named histogram, creating it with the given
// bucket upper bounds on first use.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	return r.register(name, help, "histogram", func() *metric {
		return &metric{hist: newHistogram(buckets)}
	}).hist
}

// Snapshot returns every series' current value as a flat map keyed by
// series name (name, or name{label="value"}): counters and gauges under
// their own, histograms as "<name>_count" and "<name>_sum" with the
// same labels. Tests diff two snapshots to assert on counter deltas
// across a run.
func (r *Registry) Snapshot() map[string]float64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]float64, 2*len(r.order))
	for _, f := range r.order {
		for _, m := range f.series {
			switch f.kind {
			case "counter":
				out[seriesName(f.name, m.labels)] = float64(m.counter.Value())
			case "gauge":
				out[seriesName(f.name, m.labels)] = float64(m.gauge.Value())
			case "histogram":
				out[seriesName(f.name+"_count", m.labels)] = float64(m.hist.Count())
				out[seriesName(f.name+"_sum", m.labels)] = m.hist.Sum()
			}
		}
	}
	return out
}

// Snapshot returns the Default registry's snapshot.
func Snapshot() map[string]float64 { return Default.Snapshot() }

// Delta subtracts snapshot before from after, key by key (keys absent
// from before count as zero). Gauges come through as signed deltas.
func Delta(before, after map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"mla/internal/metrics"
)

// Naming scheme: every metric is "<layer>.<counter>" in lower_snake —
// engine.steps, lock.holders, wal.syncs, net.delivered, dist.grace_aborts.
// ObserveSnapshot derives names mechanically from the per-package Stats
// structs, so the registry's view stays consistent with each package's own
// Snapshot() convention instead of inventing a second vocabulary.

// Counter is a monotonically increasing, race-safe tally.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by d.
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a race-safe last-value metric.
type Gauge struct{ v atomic.Int64 }

// Set replaces the gauge's value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram accumulates int64 samples into fixed log-linear buckets
// (metrics.Histogram: no allocation per sample, memory independent of the
// sample count, quantiles within 1.6%) and summarizes them with order
// statistics. Observe takes a lock; it belongs on reporting paths (one
// call per wait, per commit), not per-step hot loops. Obtain one from
// Registry.Histogram.
type Histogram struct {
	mu sync.Mutex
	h  *metrics.Histogram
}

// Observe records one sample.
func (h *Histogram) Observe(v int64) {
	h.mu.Lock()
	h.h.Record(v)
	h.mu.Unlock()
}

// Summary returns order statistics over the samples recorded so far.
func (h *Histogram) Summary() metrics.Summary {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.h.Summary()
}

// Registry is the run-wide aggregated view: named counters, gauges, and
// histograms behind one race-safe surface. Metrics are created on first
// use; the same name always returns the same instance.
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

// Counter returns (creating if needed) the named counter.
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

// Gauge returns (creating if needed) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (creating if needed) the named histogram.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{h: metrics.NewHistogram()}
		r.hists[name] = h
	}
	return h
}

// ObserveSnapshot folds a package's Snapshot() stats struct into the
// registry: every exported numeric field is ADDED to the counter named
// prefix.field (lower_snake), so repeated runs aggregate instead of
// overwriting each other. It accepts a struct or pointer to struct and
// silently skips non-numeric fields — the uniform bridge from the
// per-package Stats conventions (lock, sched, wal, net, dist) to the
// run-wide view.
func (r *Registry) ObserveSnapshot(prefix string, snap any) {
	v := reflect.ValueOf(snap)
	for v.Kind() == reflect.Pointer {
		if v.IsNil() {
			return
		}
		v = v.Elem()
	}
	if v.Kind() != reflect.Struct {
		return
	}
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() {
			continue
		}
		var n int64
		switch fv := v.Field(i); fv.Kind() {
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			n = fv.Int()
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			n = int64(fv.Uint())
		case reflect.Float32, reflect.Float64:
			n = int64(fv.Float())
		default:
			continue
		}
		r.Counter(prefix + "." + snakeCase(f.Name)).Add(n)
	}
}

// snakeCase converts an exported Go field name to lower_snake:
// "DroppedLink" -> "dropped_link", "P99" -> "p99".
func snakeCase(name string) string {
	var b strings.Builder
	for i, c := range name {
		if c >= 'A' && c <= 'Z' {
			if i > 0 && (name[i-1] < 'A' || name[i-1] > 'Z') {
				b.WriteByte('_')
			}
			c += 'a' - 'A'
		}
		b.WriteRune(c)
	}
	return b.String()
}

// flat returns every metric as a sorted name -> value map; histograms
// expand to name.count/min/max/mean/p50/p95/p99.
func (r *Registry) flat() map[string]any {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]any, len(r.counters)+len(r.gauges)+7*len(r.hists))
	for name, c := range r.counters {
		out[name] = c.Value()
	}
	for name, g := range r.gauges {
		out[name] = g.Value()
	}
	for name, h := range r.hists {
		s := h.Summary()
		out[name+".count"] = int64(s.N)
		out[name+".min"] = s.Min
		out[name+".max"] = s.Max
		out[name+".mean"] = s.Mean
		out[name+".p50"] = s.P50
		out[name+".p95"] = s.P95
		out[name+".p99"] = s.P99
	}
	return out
}

// WriteJSON writes the flat metrics dump (encoding/json sorts the keys).
func (r *Registry) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(r.flat(), "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}

// Table renders the registry expvar-style: one sorted name/value row per
// metric, via the same metrics.Table every bench report uses.
func (r *Registry) Table() *metrics.Table {
	flat := r.flat()
	names := make([]string, 0, len(flat))
	for name := range flat {
		names = append(names, name)
	}
	sort.Strings(names)
	tbl := metrics.NewTable("telemetry", "metric", "value")
	for _, name := range names {
		tbl.Row(name, fmt.Sprintf("%v", flat[name]))
	}
	return tbl
}

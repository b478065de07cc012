package telemetry

import (
	"io"
	"reflect"
	"sort"
	"strconv"
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

// Registry is the run-wide aggregated view: named counters and histograms
// behind one race-safe surface. Metrics are created on first use; the same
// name always returns the same instance.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
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
// overwriting each other. Nested structs, non-nil pointers and string-keyed
// maps fold under prefix.field.sub (a map key is used verbatim); nil
// pointers and every other kind are skipped — the uniform bridge from the
// per-package Stats conventions (lock, sched, wal, net, dist, serve) to the
// run-wide view.
func (r *Registry) ObserveSnapshot(prefix string, snap any) {
	r.observe(prefix, reflect.ValueOf(snap))
}

func (r *Registry) observe(name string, v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			r.observe(name, v.Elem())
		}
	case reflect.Struct:
		t := v.Type()
		for i := 0; i < t.NumField(); i++ {
			if f := t.Field(i); f.IsExported() {
				r.observe(name+"."+snakeCase(f.Name), v.Field(i))
			}
		}
	case reflect.Map:
		if v.Type().Key().Kind() == reflect.String {
			for it := v.MapRange(); it.Next(); {
				r.observe(name+"."+it.Key().String(), it.Value())
			}
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		r.Counter(name).Add(v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		r.Counter(name).Add(int64(v.Uint()))
	case reflect.Float32, reflect.Float64:
		r.Counter(name).Add(int64(v.Float()))
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

// WriteText writes every metric as one "name value" line, sorted by name,
// in Prometheus's untyped text exposition format: '.' and '-' in a name
// become '_', and a histogram expands to name_count, _min, _max, _mean,
// _p50, _p95 and _p99.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	lines := make([]string, 0, len(r.counters)+7*len(r.hists))
	for name, c := range r.counters {
		lines = append(lines, promName.Replace(name)+" "+strconv.FormatInt(c.Value(), 10))
	}
	for name, h := range r.hists {
		s, n := h.Summary(), promName.Replace(name)
		lines = append(lines,
			n+"_count "+strconv.Itoa(s.N),
			n+"_min "+strconv.FormatInt(s.Min, 10),
			n+"_max "+strconv.FormatInt(s.Max, 10),
			n+"_mean "+strconv.FormatFloat(s.Mean, 'g', -1, 64),
			n+"_p50 "+strconv.FormatInt(s.P50, 10),
			n+"_p95 "+strconv.FormatInt(s.P95, 10),
			n+"_p99 "+strconv.FormatInt(s.P99, 10))
	}
	r.mu.Unlock()
	sort.Strings(lines) // ' ' sorts before every name byte: by name
	var b strings.Builder
	for _, l := range lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}

var promName = strings.NewReplacer(".", "_", "-", "_")

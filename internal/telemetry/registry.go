package telemetry

import (
	"io"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
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

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Registry is the run-wide aggregated view: named counters behind one
// race-safe surface. A counter is created on first use; the same name
// always returns the same instance.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{counters: make(map[string]*Counter)}
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

// ObserveSnapshot folds a package's Snapshot() stats struct into the
// registry: every exported numeric field is ADDED to the counter named
// prefix.field (lower_snake), so repeated runs aggregate instead of
// overwriting each other. Nested structs, non-nil pointers and string-keyed
// maps fold under prefix.field.sub (a map key is used verbatim); an
// embedded struct's fields fold at its parent's prefix, as Go promotes
// them; nil pointers and every other kind are skipped — the uniform bridge from the
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
			switch f := t.Field(i); {
			case f.Anonymous && f.IsExported() && f.Type.Kind() == reflect.Struct:
				r.observe(name, v.Field(i))
			case f.IsExported():
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

// WriteText writes every counter as one "name value" line, sorted by
// name, in Prometheus's untyped text exposition format: '.' and '-' in a
// name become '_'.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	lines := make([]string, 0, len(r.counters))
	for name, c := range r.counters {
		lines = append(lines, promName.Replace(name)+" "+strconv.FormatInt(c.Value(), 10))
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

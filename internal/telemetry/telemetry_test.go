package telemetry

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
)

// TestRegistryRaceSafety hammers one registry's counter from many
// goroutines and checks the total. Run with -race for the full payoff.
func TestRegistryRaceSafety(t *testing.T) {
	r := NewRegistry()
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Counter("engine.steps").Add(1)
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("engine.steps").Value(); got != workers*per {
		t.Errorf("counter = %d, want %d", got, workers*per)
	}
	// Same name always returns the same instance.
	if r.Counter("engine.steps") != r.Counter("engine.steps") {
		t.Error("Counter returned distinct instances for one name")
	}
}

func TestSnakeCase(t *testing.T) {
	cases := map[string]string{
		"Committed":   "committed",
		"DroppedLink": "dropped_link",
		"P99":         "p99",
		"StaleWaits":  "stale_waits",
		"Syncs":       "syncs",
	}
	for in, want := range cases {
		if got := snakeCase(in); got != want {
			t.Errorf("snakeCase(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestObserveSnapshotAggregates folds the same stats struct in twice: the
// registry must ADD (aggregate across runs), not overwrite, must derive
// lower_snake names, and must skip unexported and non-numeric fields.
func TestObserveSnapshotAggregates(t *testing.T) {
	type stats struct {
		Committed   int
		DroppedLink int64
		Rate        float64
		Name        string // non-numeric: skipped
		hidden      int    // unexported: skipped
	}
	r := NewRegistry()
	s := stats{Committed: 3, DroppedLink: 7, Rate: 2.9, Name: "x", hidden: 99}
	r.ObserveSnapshot("net", s)
	r.ObserveSnapshot("net", &s) // pointer form works too
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	// Rate is truncated per observation; Name and hidden leave no line.
	if want := "net_committed 6\nnet_dropped_link 14\nnet_rate 4\n"; buf.String() != want {
		t.Errorf("WriteText = %q, want %q", buf.String(), want)
	}
}

// TestRegistryExports pins WriteText byte for byte: lines sorted by name,
// '.' and '-' mapped to '_', and ObserveSnapshot folding nested structs, non-nil pointers and
// string-keyed maps (a nil pointer and a non-string-keyed map fold nothing),
// and an exported embedded struct's fields at its parent's prefix (an
// unexported one folds nothing).
func TestRegistryExports(t *testing.T) {
	type gate struct{ Queued int }
	type Counts struct{ Steps, Waits int }
	type stats struct {
		Counts
		gate
		Gates    map[string]gate
		ByID     map[int]int
		Sub      gate
		Recovery *gate
		Missing  *gate
	}
	r := NewRegistry()
	r.Counter("z.last").Add(1)
	r.Counter("wal.sharded-2pl.appends").Add(5)
	r.ObserveSnapshot("serve", stats{
		Counts:   Counts{Steps: 7, Waits: 8},
		gate:     gate{9},
		Gates:    map[string]gate{"cust": {2}, "audit": {3}},
		ByID:     map[int]int{1: 1},
		Sub:      gate{4},
		Recovery: &gate{6},
	})
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	want := `serve_gates_audit_queued 3
serve_gates_cust_queued 2
serve_recovery_queued 6
serve_steps 7
serve_sub_queued 4
serve_waits 8
wal_sharded_2pl_appends 5
z_last 1
`
	if buf.String() != want {
		t.Errorf("WriteText:\n%s\nwant:\n%s", buf.String(), want)
	}
}

// TestTracerNestingAndMerge exercises the span lifecycle across two Locals:
// parent links, per-Local buffers merged sorted by start, and open spans
// auto-closed at merge with the open=true marker.
func TestTracerNestingAndMerge(t *testing.T) {
	tr := NewTracer()
	pid := tr.NextPID()
	a, b := tr.Local(), tr.Local()

	run := a.BeginAt(0, "run", "run 1", pid, 0, 0)
	txn := a.BeginAt(10, "txn", "t1#0", pid, 1, run)
	wait := a.BeginAt(20, "lock-wait", "wait x", pid, 1, txn)
	a.Arg(wait, "entity", "x")
	a.EndAt(wait, 50)
	a.EndAt(txn, 60)
	a.EndAt(run, 100)
	b.RecordAt(5, 30, "replica-rpc", "boundary", pid, 2, 0)
	leak := b.BeginAt(40, "recovery", "recovery 2", pid, 0, 0)

	spans := tr.Spans()
	if len(spans) != 5 {
		t.Fatalf("merged %d spans, want 5", len(spans))
	}
	for i := 1; i < len(spans); i++ {
		if spans[i].Start < spans[i-1].Start {
			t.Fatalf("spans not sorted by start: %d after %d", spans[i].Start, spans[i-1].Start)
		}
	}
	byID := make(map[SpanID]Span)
	for _, s := range spans {
		byID[s.ID] = s
	}
	if byID[txn].Parent != run || byID[wait].Parent != txn {
		t.Error("parent links lost in merge")
	}
	w := byID[wait]
	tx := byID[txn]
	if w.Start < tx.Start || w.End > tx.End {
		t.Errorf("wait span [%d,%d] not nested within txn [%d,%d]", w.Start, w.End, tx.Start, tx.End)
	}
	if w.Args["entity"] != "x" {
		t.Error("Arg lost")
	}
	lk := byID[leak]
	if lk.Args["open"] != "true" {
		t.Error("span left open was not marked open=true at merge")
	}
	if lk.End < lk.Start {
		t.Error("auto-closed span ends before it starts")
	}
	// Closing or annotating an unknown id is a no-op, not a panic.
	a.End(wait)
	a.Arg(wait, "k", "v")
	if _, open := a.open[wait]; open {
		t.Error("closed span still reported open")
	}
}

// TestChromeExportRoundTrips writes a small trace and re-reads it through
// encoding/json: metadata events lead, every span is a complete event with
// nonnegative microsecond timestamps in nondecreasing order, and parent
// links survive as args.
func TestChromeExportRoundTrips(t *testing.T) {
	tr := NewTracer()
	pid := tr.NextPID()
	tr.NameProcess(pid, "engine")
	tr.NameLane(pid, 1, "t1")
	l := tr.Local()
	run := l.BeginAt(0, "run", "run 1", pid, 0, 0)
	l.RecordAt(1000, 500, "lock-wait", "wait x", pid, 1, run)
	l.RecordAt(2500, 0, "commit-group", "commit group (2)", pid, 0, run, "size", "2")
	l.EndAt(run, 3000)

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Cat  string            `json:"cat"`
			Ph   string            `json:"ph"`
			TS   float64           `json:"ts"`
			Dur  float64           `json:"dur"`
			PID  int64             `json:"pid"`
			TID  int64             `json:"tid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if out.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", out.DisplayTimeUnit)
	}
	var meta, complete, instant int
	lastTS := -1.0
	sawParent := false
	for i, e := range out.TraceEvents {
		switch e.Ph {
		case "M":
			meta++
			if complete > 0 {
				t.Errorf("metadata event %d after a complete event", i)
			}
		case "X", "i":
			if e.Ph == "i" {
				instant++
				if e.Dur != 0 {
					t.Errorf("instant %q has dur %v", e.Name, e.Dur)
				}
			} else {
				complete++
			}
			if e.TS < 0 || e.Dur < 0 {
				t.Errorf("event %q has negative ts/dur", e.Name)
			}
			if e.TS < lastTS {
				t.Errorf("timestamps not monotone: %f after %f", e.TS, lastTS)
			}
			lastTS = e.TS
			if e.Args["parent"] != "" {
				sawParent = true
			}
		default:
			t.Errorf("unexpected phase %q", e.Ph)
		}
	}
	if meta != 2 {
		t.Errorf("metadata events = %d, want 2 (process_name + thread_name)", meta)
	}
	if complete != 2 {
		t.Errorf("complete events = %d, want 2 (run + lock-wait)", complete)
	}
	// The zero-duration commit-group event exports as an instant marker,
	// not an invisible zero-width interval.
	if instant != 1 {
		t.Errorf("instant events = %d, want 1 (the commit-group)", instant)
	}
	if !sawParent {
		t.Error("no event carried a parent arg")
	}
	// The wait span's microsecond conversion: 1000ns start = 1µs.
	for _, e := range out.TraceEvents {
		if e.Cat == "lock-wait" {
			if e.TS != 1.0 || e.Dur != 0.5 {
				t.Errorf("lock-wait ts/dur = %v/%v, want 1/0.5", e.TS, e.Dur)
			}
		}
	}
}

// TestOpenSpanClosesAtLastRecordedTimestamp: a span still open at export
// time must close at its Local's latest recorded timestamp, not at the
// tracer's wall clock — a simulated-time producer records timestamps in
// SimUnits (a few thousand ns), and wall-clock now would hand a leaked run
// span a duration millions of units past its deepest child.
func TestOpenSpanClosesAtLastRecordedTimestamp(t *testing.T) {
	tr := NewTracer()
	pid := tr.NextPID()
	l := tr.Local()
	run := l.BeginAt(0, "run", "sim run", pid, 0, 0)
	l.RecordAt(1000, 500, "txn", "t1", pid, 1, run)
	l.RecordAt(2000, 0, "commit-group", "cg", pid, 0, run)
	// run is left open deliberately (a producer that died before sealing).
	spans := tr.Spans()
	var found bool
	for _, s := range spans {
		if s.ID != run {
			continue
		}
		found = true
		if s.Args["open"] != "true" {
			t.Error("leaked span not marked open=true")
		}
		if s.End != 2000 {
			t.Errorf("leaked span closed at %d, want the local's last recorded timestamp 2000", s.End)
		}
	}
	if !found {
		t.Fatal("open span missing from merge")
	}
}

func TestSimUnit(t *testing.T) {
	if SimUnit(7) != 7000 {
		t.Errorf("SimUnit(7) = %d", SimUnit(7))
	}
}

package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span names, one per layer boundary the benchmark itself can see. The
// layer of a span is the package whose public function the span times.
type spanName uint8

const (
	spClientRequest  spanName = iota // loadgen.Client.Do over loopback HTTP
	spHTTPHandler                    // serve.Server.Handler().ServeHTTP
	spEngineTxn                      // serve_durable: response latency_us
	spLockWait                       // serve_durable: response waited_us
	spEngineSubmit                   // engine.Session.Submit
	spSchedBegin                     // sched.Control.Begin
	spSchedRequest                   // sched.Control.Request
	spSchedPerformed                 // sched.Control.Performed
	spSchedFinished                  // sched.Control.Finished / Retired
	spSchedAborted                   // sched.Control.Aborted / ReleaseAll
	spStorePerform                   // engine.Store.Perform
	spStoreCommit                    // engine.Store.CommitGroup / SubmitGroup
	spStoreAbort                     // engine.Store.Abort
	numSpanNames
)

var spanInfo = [numSpanNames]struct{ name, layer string }{
	spClientRequest:  {"client.request", "client"},
	spHTTPHandler:    {"http.handler", "serve"},
	spEngineTxn:      {"engine.txn", "engine"},
	spLockWait:       {"lock.wait", "sched"},
	spEngineSubmit:   {"engine.submit", "engine"},
	spSchedBegin:     {"sched.begin", "sched"},
	spSchedRequest:   {"sched.request", "sched"},
	spSchedPerformed: {"sched.performed", "sched"},
	spSchedFinished:  {"sched.finished", "sched"},
	spSchedAborted:   {"sched.aborted", "sched"},
	spStorePerform:   {"store.perform", "store"},
	spStoreCommit:    {"store.commit", "store"},
	spStoreAbort:     {"store.abort", "store"},
}

// traceLayers is the fixed set of layers self time is reported for.
var traceLayers = []string{"client", "serve", "engine", "sched", "store"}

// span is one timed interval. Root spans (Parent 0) carry the transaction's
// index as their ID, so a child recorded deep inside a decorator finds its
// parent from the transaction number alone — no shared map on the traced
// path. Children take IDs above rootIDSpace.
type span struct {
	ID, Parent int64
	Txn        int64
	Name       spanName
	Start, End int64 // ns since the tracer's epoch
}

const rootIDSpace = 1 << 40

// tracer keeps spans in memory, sharded by transaction so concurrent
// callers rarely meet, and writes nothing until the pass ends.
type tracer struct {
	epoch  time.Time
	nextID atomic.Int64
	shards [64]struct {
		mu    sync.Mutex
		spans []span
		_     [32]byte
	}
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now()}
	t.nextID.Store(rootIDSpace)
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) add(s span) {
	sh := &t.shards[uint64(s.Txn)%uint64(len(t.shards))]
	sh.mu.Lock()
	sh.spans = append(sh.spans, s)
	sh.mu.Unlock()
}

// root records the transaction's top-level span; txn must be ≥ 1.
func (t *tracer) root(name spanName, txn, start, end int64) {
	t.add(span{ID: txn, Txn: txn, Name: name, Start: start, End: end})
}

// child records a span under parent (a root's transaction index, or the ID
// a previous child call returned) and returns the new span's ID.
func (t *tracer) child(name spanName, txn, parent, start, end int64) int64 {
	id := t.nextID.Add(1)
	t.add(span{ID: id, Parent: parent, Txn: txn, Name: name, Start: start, End: end})
	return id
}

func (t *tracer) all() []span {
	var out []span
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		out = append(out, sh.spans...)
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// traceSummary is the per-layer reading of one traced pass.
type traceSummary struct {
	Roots     int
	RootTotal time.Duration            // Σ root span durations
	SelfTotal time.Duration            // Σ self time over every span
	SelfByLay map[string]time.Duration // self time per layer
	Orphans   int                      // children whose parent was never recorded
}

// summarize computes self time: a span's duration minus the part of its
// interval its children cover (children are clipped to the parent, so a
// clock skew of a few ns between goroutines cannot make self time negative).
func summarize(spans []span) traceSummary {
	sum := traceSummary{SelfByLay: make(map[string]time.Duration)}
	byID := make(map[int64]int, len(spans))
	for i, s := range spans {
		byID[s.ID] = i
	}
	covered := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		pi, ok := byID[s.Parent]
		if !ok {
			sum.Orphans++
			continue
		}
		p := spans[pi]
		lo, hi := s.Start, s.End
		if lo < p.Start {
			lo = p.Start
		}
		if hi > p.End {
			hi = p.End
		}
		if hi > lo {
			covered[pi] += hi - lo
		}
	}
	for i, s := range spans {
		dur := s.End - s.Start
		self := dur - covered[i]
		if self < 0 {
			self = 0
		}
		sum.SelfByLay[spanInfo[s.Name].layer] += time.Duration(self)
		sum.SelfTotal += time.Duration(self)
		if s.Parent == 0 {
			sum.Roots++
			sum.RootTotal += time.Duration(dur)
		}
	}
	return sum
}

// chromeEvent is one complete ("X") event of the Chrome trace-event format,
// loadable in chrome://tracing and Perfetto.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	PID  int            `json:"pid"`
	TID  int64          `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChromeTrace writes the spans of the first maxTxns transactions.
func writeChromeTrace(path string, spans []span, maxTxns int64) error {
	events := make([]chromeEvent, 0, len(spans))
	for _, s := range spans {
		if s.Txn > maxTxns {
			continue
		}
		events = append(events, chromeEvent{
			Name: spanInfo[s.Name].name,
			Cat:  spanInfo[s.Name].layer,
			Ph:   "X",
			TS:   float64(s.Start) / 1e3,
			Dur:  float64(s.End-s.Start) / 1e3,
			PID:  1,
			TID:  s.Txn % 16, // a few lanes, so overlapping transactions stack readably
			Args: map[string]any{"txn": s.Txn, "id": s.ID, "parent": s.Parent},
		})
	}
	return writeTrace(path, events)
}

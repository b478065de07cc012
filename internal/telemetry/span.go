package telemetry

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// SpanID identifies one span within a Tracer. 0 is "no span" (no parent).
type SpanID int64

// Span is one timed interval of a run: a transaction attempt, a breakpoint
// unit, a lock wait, a commit group, a recovery pass, a replica RPC.
// Timestamps are nanoseconds since the tracer's epoch; instant events are
// spans with End == Start. PID groups spans into a process lane (one engine
// run, one simulator run, one bus) and TID into a thread lane within it
// (one transaction, one processor) — the two axes Chrome's trace viewer
// and Perfetto render as nested swimlanes.
type Span struct {
	ID     SpanID
	Parent SpanID
	Cat    string // taxonomy: run, txn, unit, lock-wait, commit-group, recovery, crash, abort, fault, gaveup, replica-rpc
	Name   string
	PID    int64
	TID    int64
	Start  int64 // ns since the tracer epoch
	End    int64 // ns; == Start for instant events
	Args   map[string]string
}

// Tracer collects spans from any number of goroutines with no locking on
// the record path: each producer asks for a Local once (a mutex-guarded
// registration) and then appends spans to it without synchronization.
// Locals are merged by Spans() after the run quiesces. The design keeps
// enabled tracing off every contended path — the engine's observer hooks
// append to one Local under the engine mutex it already holds, so tracing
// adds no lock the engine does not take anyway.
type Tracer struct {
	epoch time.Time
	ids   atomic.Int64
	pids  atomic.Int64

	mu     sync.Mutex
	locals []*Local
	procs  map[int64]string    // pid -> process lane name
	lanes  map[[2]int64]string // (pid, tid) -> thread lane name
}

// NewTracer returns a tracer whose clock starts now.
func NewTracer() *Tracer {
	return &Tracer{
		epoch: time.Now(),
		procs: make(map[int64]string),
		lanes: make(map[[2]int64]string),
	}
}

// Now returns nanoseconds since the tracer's epoch. Wall-clock producers
// (the engine) use it; simulated-time producers (the bus, the simulator)
// supply their own timestamps and never call it.
func (tr *Tracer) Now() int64 { return time.Since(tr.epoch).Nanoseconds() }

// NextPID allocates a fresh process-lane id.
func (tr *Tracer) NextPID() int64 { return tr.pids.Add(1) }

// NameProcess labels a process lane in the exported trace.
func (tr *Tracer) NameProcess(pid int64, name string) {
	tr.mu.Lock()
	tr.procs[pid] = name
	tr.mu.Unlock()
}

// NameLane labels a thread lane in the exported trace.
func (tr *Tracer) NameLane(pid, tid int64, name string) {
	tr.mu.Lock()
	tr.lanes[[2]int64{pid, tid}] = name
	tr.mu.Unlock()
}

// Local registers a new lock-free span buffer. The returned Local must be
// used from one goroutine at a time (the caller supplies the serialization
// — a worker's own goroutine, or a mutex it already holds).
func (tr *Tracer) Local() *Local {
	l := &Local{tr: tr, open: make(map[SpanID]*Span)}
	tr.mu.Lock()
	tr.locals = append(tr.locals, l)
	tr.mu.Unlock()
	return l
}

// Spans merges every Local's buffer into one slice sorted by start time.
// Spans still open at merge time are reported as closing at their Local's
// latest recorded timestamp (their Args gain open=true) — not at the
// tracer's wall clock, which would hand simulated-time producers an end
// far beyond anything they recorded and inflate the leaked span's duration
// past every child. Call it only after producers have quiesced — typically
// after the run returns.
func (tr *Tracer) Spans() []Span {
	tr.mu.Lock()
	locals := append([]*Local(nil), tr.locals...)
	tr.mu.Unlock()
	var out []Span
	for _, l := range locals {
		out = append(out, l.done...)
		for _, sp := range l.open {
			s := *sp
			s.End = l.maxTS
			if s.End < s.Start {
				s.End = s.Start
			}
			s.Args = copyArgs(s.Args)
			s.Args["open"] = "true"
			out = append(out, s)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].ID < out[j].ID
	})
	return out
}

func copyArgs(in map[string]string) map[string]string {
	out := make(map[string]string, len(in)+1)
	for k, v := range in {
		out[k] = v
	}
	return out
}

func kvArgs(kv []string) map[string]string {
	if len(kv) == 0 {
		return nil
	}
	m := make(map[string]string, len(kv)/2)
	for i := 0; i+1 < len(kv); i += 2 {
		m[kv[i]] = kv[i+1]
	}
	return m
}

// Local is one producer's span buffer. No method takes a lock; the caller
// guarantees single-goroutine (or externally serialized) access.
type Local struct {
	tr    *Tracer
	done  []Span
	open  map[SpanID]*Span
	maxTS int64 // latest timestamp this Local recorded; closes leaked spans
}

func (l *Local) see(ts int64) {
	if ts > l.maxTS {
		l.maxTS = ts
	}
}

// Begin opens a span starting now.
func (l *Local) Begin(cat, name string, pid, tid int64, parent SpanID, kv ...string) SpanID {
	return l.BeginAt(l.tr.Now(), cat, name, pid, tid, parent, kv...)
}

// BeginAt opens a span with an explicit start timestamp (simulated clocks).
func (l *Local) BeginAt(start int64, cat, name string, pid, tid int64, parent SpanID, kv ...string) SpanID {
	l.see(start)
	id := SpanID(l.tr.ids.Add(1))
	l.open[id] = &Span{
		ID: id, Parent: parent, Cat: cat, Name: name,
		PID: pid, TID: tid, Start: start, Args: kvArgs(kv),
	}
	return id
}

// Arg attaches a key/value to an open span; unknown ids are ignored (the
// span may have been closed by a racing lifecycle edge, e.g. an abort that
// beat a wait wakeup).
func (l *Local) Arg(id SpanID, k, v string) {
	sp, ok := l.open[id]
	if !ok {
		return
	}
	if sp.Args == nil {
		sp.Args = make(map[string]string, 1)
	}
	sp.Args[k] = v
}

// End closes an open span now. Closing an unknown id is a no-op.
func (l *Local) End(id SpanID) { l.EndAt(id, l.tr.Now()) }

// EndAt closes an open span at an explicit timestamp.
func (l *Local) EndAt(id SpanID, end int64) {
	l.see(end)
	sp, ok := l.open[id]
	if !ok {
		return
	}
	delete(l.open, id)
	if end < sp.Start {
		end = sp.Start
	}
	sp.End = end
	l.done = append(l.done, *sp)
}

// Event records an instant: a zero-duration span at the current time.
func (l *Local) Event(cat, name string, pid, tid int64, parent SpanID, kv ...string) SpanID {
	return l.RecordAt(l.tr.Now(), 0, cat, name, pid, tid, parent, kv...)
}

// RecordAt records a completed span with explicit start and duration —
// the one-call path for producers that know both ends (the simulated bus
// records an RPC when it delivers, with the send time in hand).
func (l *Local) RecordAt(start, dur int64, cat, name string, pid, tid int64, parent SpanID, kv ...string) SpanID {
	if dur < 0 {
		dur = 0
	}
	l.see(start + dur)
	id := SpanID(l.tr.ids.Add(1))
	l.done = append(l.done, Span{
		ID: id, Parent: parent, Cat: cat, Name: name,
		PID: pid, TID: tid, Start: start, End: start + dur, Args: kvArgs(kv),
	})
	return id
}

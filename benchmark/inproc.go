package main

import (
	"sync"
	"sync/atomic"
	"time"

	"mla/internal/engine"
	"mla/internal/metrics"
)

// passResult is what one measured pass of any workload reports.
type passResult struct {
	Offered   int
	Committed int
	Failed    map[string]int // status → count; every non-acked outcome lands here
	Elapsed   time.Duration
	Cost      resources // CPU, mallocs, storage bytes spent during the pass

	Lat  windowStats        // windowed p50/p99, ns
	Hist *metrics.Histogram // every committed latency, ns
	// Raw and Done (loopSpec.keepRaw only): each committed transaction's
	// latency and completion offset from the pass start, ns, unordered.
	Raw, Done []int64

	// Σ over committed transactions of engine.Outcome fields.
	Restarts int64
	Waited   time.Duration
	Service  time.Duration
}

func (r *passResult) throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Committed) / r.Elapsed.Seconds()
}

func (r *passResult) failedCount() int {
	n := 0
	for _, c := range r.Failed {
		n += c
	}
	return n
}

// perTxn divides a pass cost by the committed count.
func (r *passResult) perTxn(v float64) float64 {
	if r.Committed == 0 {
		return 0
	}
	return v / float64(r.Committed)
}

// submitFn executes request i (1-based; also the transaction's trace index)
// on behalf of one caller. status is "" for a commit and otherwise names
// the failure.
type submitFn func(caller int, i int64) (status string, out engine.Outcome)

// loopSpec sizes one closed-loop pass.
type loopSpec struct {
	first   int64 // index of the first request (1 for a fresh list)
	txns    int
	callers int
	// window is the per-window transaction count across all callers; each
	// caller closes a window every window/callers of its own transactions.
	// 0 with keepRaw leaves windowing to the caller.
	window  int
	keepRaw bool
	tr      *tracer
}

// closedLoop drives requests first … first+txns−1 through submit from
// `callers` goroutines, each issuing its next request when the previous one
// resolved — the load an embedded engine's callers produce. Latency is
// service time from dispatch. Every caller keeps its own window buffer,
// histogram and counters; nothing on the measured path is shared but the
// request counter.
func closedLoop(ls loopSpec, submit submitFn) passResult {
	txns, callers, window, tr := ls.txns, ls.callers, ls.window, ls.tr
	type local struct {
		res passResult
		buf []int64 // the open window
		_   [64]byte
	}
	perCaller := window / callers
	locals := make([]local, callers)
	for c := range locals {
		locals[c].res.Failed = make(map[string]int)
		locals[c].res.Hist = metrics.NewHistogram()
		locals[c].buf = make([]int64, 0, perCaller)
	}

	var next atomic.Int64
	var wg sync.WaitGroup
	before := readResources()
	start := time.Now()
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			l := &locals[c]
			for {
				n := next.Add(1)
				if n > int64(txns) {
					return
				}
				i := ls.first + n - 1
				t0 := time.Now()
				status, out := submit(c, i)
				t1 := time.Now()
				if tr != nil {
					tr.root(spEngineSubmit, i, int64(t0.Sub(tr.epoch)), int64(t1.Sub(tr.epoch)))
				}
				l.res.Offered++
				if status != "" {
					l.res.Failed[status]++
					continue
				}
				lat := int64(t1.Sub(t0))
				l.res.Committed++
				l.res.Hist.Record(lat)
				l.res.Restarts += int64(out.Restarts)
				l.res.Waited += out.Waited
				l.res.Service += out.Latency
				if ls.keepRaw {
					l.res.Raw = append(l.res.Raw, lat)
					l.res.Done = append(l.res.Done, int64(t1.Sub(start)))
					continue
				}
				l.buf = append(l.buf, lat)
				if len(l.buf) == perCaller {
					l.res.Lat.addWindow(l.buf)
					l.buf = l.buf[:0]
				}
			}
		}(c)
	}
	wg.Wait()
	total := passResult{Elapsed: time.Since(start), Failed: make(map[string]int), Hist: metrics.NewHistogram()}
	total.Cost = readResources().since(before)
	for c := range locals {
		l := &locals[c]
		l.res.Lat.addWindow(l.buf) // the tail, when it still supports a p99
		total.Lat.merge(l.res.Lat)
		total.Offered += l.res.Offered
		total.Committed += l.res.Committed
		for s, n := range l.res.Failed {
			total.Failed[s] += n
		}
		total.Hist.Merge(l.res.Hist)
		total.Raw = append(total.Raw, l.res.Raw...)
		total.Done = append(total.Done, l.res.Done...)
		total.Restarts += l.res.Restarts
		total.Waited += l.res.Waited
		total.Service += l.res.Service
	}
	return total
}

// outcomeStatus classifies an engine submission for the failure tally.
func outcomeStatus(out engine.Outcome, err error) string {
	switch {
	case err != nil:
		return "error"
	case out.Committed:
		return ""
	case out.DeadlineExceeded:
		return "deadline"
	case out.Canceled:
		return "canceled"
	case out.GaveUp:
		return "gave_up"
	}
	return "unresolved"
}

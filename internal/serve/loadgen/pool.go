package loadgen

import (
	"context"
	"math/rand"
	"sync"
	"time"

	"mla/internal/metrics"
)

// Clock abstracts time for an arrival schedule (OpenLoop's anchor). Wall is
// the real-time Clock, and the one the Pool runs on.
type Clock interface {
	Now() time.Time
	// Sleep blocks for d or until ctx is done, returning ctx.Err() in the
	// latter case.
	Sleep(ctx context.Context, d time.Duration) error
}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

func (wallClock) Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Wall is the real-time Clock.
var Wall Clock = wallClock{}

// backoffBase is the initial backoff of a shed (429) retry; it doubles per
// try, capped at 64×.
const backoffBase = 20 * time.Millisecond

// Arrival is one scheduled transaction. At is the arrival's scheduled time
// under the open-loop model: the worker waits until At, executes, and
// measures latency FROM At — so time an arrival spends queued behind busy
// workers counts against the server, which is what makes the measurement
// coordinated-omission-safe. A zero At is the closed-loop degenerate case:
// execute immediately, measure from dispatch.
type Arrival struct {
	At  time.Time
	Req Request
}

// Pool executes arrivals with a fixed set of worker goroutines over a
// shared Client — the replacement for the old goroutine-per-request driver.
// Bounded workers put a hard cap on in-flight requests (and, over HTTP, on
// connections, which the pooled transport then reuses); open-loop fidelity
// is preserved by measuring from the scheduled arrival time rather than
// from dispatch.
type Pool struct {
	// Client executes individual attempts. Required.
	Client Client
	// Workers is the number of worker goroutines (default 16).
	Workers int
	// MaxRetries bounds capped-backoff retries of shed (429) attempts.
	MaxRetries int
	// Observe, when non-nil, is called by workers after each logical
	// transaction resolves, with the open-loop latency in nanoseconds
	// (acked transactions only; -1 otherwise). It runs on worker
	// goroutines and must be safe for concurrent use.
	Observe func(res Result, openLatNS int64)
	// KeepIDs retains every acked transaction ID in the report. The soak's
	// Reverify audit needs them; multi-million-txn load cells must leave
	// this off so report memory stays O(1) in the run length.
	KeepIDs bool
}

// PoolReport aggregates one pool run. Counters sum over logical
// transactions (a transaction shed twice and then acked counts once in
// Acked, twice in Retries).
type PoolReport struct {
	Offered  int
	Acked    int
	Deadline int
	Shed     int
	Draining int
	Canceled int
	Down     int
	Errors   int
	Retries  int
	AckedIDs []string

	// Latency is the open-loop latency histogram in nanoseconds, acked
	// transactions only, measured from the scheduled arrival (or dispatch
	// for closed-loop arrivals).
	Latency *metrics.Histogram
	// ServiceUS sums the server-reported per-transaction service latencies
	// (µs) of acked transactions, for mean service time.
	ServiceUS int64
	// ErrorSamples holds the first few error details so a failed run is
	// diagnosable from the report alone.
	ErrorSamples []string
}

func (r *PoolReport) note(detail string) {
	if detail != "" && len(r.ErrorSamples) < 8 {
		r.ErrorSamples = append(r.ErrorSamples, detail)
	}
}

func (r *PoolReport) merge(o *PoolReport) {
	r.Offered += o.Offered
	r.Acked += o.Acked
	r.Deadline += o.Deadline
	r.Shed += o.Shed
	r.Draining += o.Draining
	r.Canceled += o.Canceled
	r.Down += o.Down
	r.Errors += o.Errors
	r.Retries += o.Retries
	r.AckedIDs = append(r.AckedIDs, o.AckedIDs...)
	r.Latency.Merge(o.Latency)
	r.ServiceUS += o.ServiceUS
	for _, s := range o.ErrorSamples {
		r.note(s)
	}
}

// Run consumes arrivals until the channel closes (or ctx is cancelled, in
// which case remaining arrivals are drained and counted as Errors) and
// returns the merged report. Each worker keeps private counters and a
// private histogram, merged once at the end — the record path shares
// nothing.
func (p *Pool) Run(ctx context.Context, arrivals <-chan Arrival) *PoolReport {
	workers := p.Workers
	if workers <= 0 {
		workers = 16
	}
	locals := make([]*PoolReport, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		local := &PoolReport{Latency: metrics.NewHistogram()}
		locals[w] = local
		wg.Add(1)
		go func() {
			defer wg.Done()
			for a := range arrivals {
				if ctx.Err() != nil {
					// Drain without executing: the run was cancelled.
					local.Offered++
					local.Errors++
					continue
				}
				start := a.At
				if start.IsZero() {
					start = Wall.Now()
				} else if d := start.Sub(Wall.Now()); d > 0 {
					if Wall.Sleep(ctx, d) != nil {
						local.Offered++
						local.Errors++
						continue
					}
				}
				res, retries := p.oneTxn(ctx, a.Req)
				local.Offered++
				local.Retries += retries
				openLat := int64(-1)
				if res.Status == StatusAcked {
					openLat = Wall.Now().Sub(start).Nanoseconds()
				}
				if p.Observe != nil {
					p.Observe(res, openLat)
				}
				switch res.Status {
				case StatusAcked:
					local.Acked++
					if p.KeepIDs {
						local.AckedIDs = append(local.AckedIDs, res.Txn)
					}
					local.ServiceUS += res.LatencyUS
					local.Latency.Record(openLat)
				case StatusDeadline:
					local.Deadline++
				case StatusShed:
					local.Shed++
				case StatusDraining:
					local.Draining++
				case StatusCanceled:
					local.Canceled++
				case StatusDown:
					// Connection refused/reset: the server process was gone.
					// A crash-restart soak EXPECTS these (the kill lands
					// mid-load); anything acked before the kill is still
					// audited via Reverify.
					local.Down++
					local.note(res.ErrDetail)
				default:
					local.Errors++
					local.note(res.ErrDetail)
				}
			}
		}()
	}
	wg.Wait()
	rep := &PoolReport{Latency: metrics.NewHistogram()}
	for _, l := range locals {
		rep.merge(l)
	}
	return rep
}

// oneTxn runs one logical transaction to resolution, retrying 429s with
// capped exponential backoff (the same discipline the engine applies to
// transient step faults, moved to the client side of the contract).
func (p *Pool) oneTxn(ctx context.Context, r Request) (Result, int) {
	backoff := backoffBase + r.Jitter
	retries := 0
	for try := 0; ; try++ {
		rctx := ctx
		var cancel context.CancelFunc
		if r.Disconnect {
			// Abandon mid-flight: long enough to usually reach the engine,
			// short enough to often beat the commit (local commits run in
			// hundreds of microseconds).
			rctx, cancel = context.WithTimeout(ctx, 300*time.Microsecond+r.Jitter/16)
		}
		res := p.Client.Do(rctx, r)
		if cancel != nil {
			cancel()
		}
		if r.Disconnect && (res.Status == StatusError || res.Status == StatusDown || res.Status == StatusCanceled) {
			// The injected disconnect surfaced as a transport error or an
			// explicit cancel — either way, that was the point.
			res.Status = StatusCanceled
			return res, retries
		}
		if res.Status != StatusShed || try >= p.MaxRetries {
			return res, retries
		}
		retries++
		if Wall.Sleep(ctx, backoff) != nil {
			res.Status = StatusShed
			return res, retries
		}
		backoff *= 2
		if max := 64 * backoffBase; backoff > max {
			backoff = max
		}
	}
}

// OpenLoop emits n arrivals on the returned channel following a Poisson
// process of the given total rate (arrivals/second), anchored at the
// clock's now. Emission runs ahead of real time, bounded by the channel
// buffer — a slow consumer never distorts the schedule, it just falls
// behind it (and the latency histogram shows exactly that). mk builds the
// i-th request; rng drives the exponential inter-arrival gaps. The channel
// closes after the last arrival (or when ctx is cancelled).
func OpenLoop(ctx context.Context, clk Clock, n int, rate float64, rng *rand.Rand, mk func(i int) Request) <-chan Arrival {
	if clk == nil {
		clk = Wall
	}
	ch := make(chan Arrival, 1024)
	go func() {
		defer close(ch)
		at := clk.Now()
		for i := 0; i < n; i++ {
			at = at.Add(time.Duration(rng.ExpFloat64() / rate * float64(time.Second)))
			select {
			case ch <- Arrival{At: at, Req: mk(i)}:
			case <-ctx.Done():
				return
			}
		}
	}()
	return ch
}

// ClosedLoop emits n unscheduled arrivals: each is executed as soon as a
// worker frees up and measured from dispatch. This is the classic
// benchmarking loop that coordinated omission hides stalls in — kept so
// the open/closed comparison (and the stall-oracle test pinning the
// difference) can run both regimes through one driver.
func ClosedLoop(ctx context.Context, n int, mk func(i int) Request) <-chan Arrival {
	ch := make(chan Arrival, 1024)
	go func() {
		defer close(ch)
		for i := 0; i < n; i++ {
			select {
			case ch <- Arrival{Req: mk(i)}:
			case <-ctx.Done():
				return
			}
		}
	}()
	return ch
}

package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// stallClient acks every request instantly — except that when the trigger-th
// request arrives it goes unresponsive for stall: every Do call issued before
// the window ends blocks until the window ends, like a server hitting a GC
// pause or a flush convoy. The synthetic stall the oracle test pins on.
type stallClient struct {
	trigger int32
	stall   time.Duration

	n          atomic.Int32
	mu         sync.Mutex
	stallUntil time.Time
}

func (c *stallClient) OpenSession(context.Context) (string, error) { return "s", nil }
func (c *stallClient) CloseSession(string)                         {}

func (c *stallClient) Do(ctx context.Context, r Request) Result {
	if c.n.Add(1) == c.trigger {
		c.mu.Lock()
		c.stallUntil = time.Now().Add(c.stall)
		c.mu.Unlock()
	}
	c.mu.Lock()
	until := c.stallUntil
	c.mu.Unlock()
	if d := time.Until(until); d > 0 {
		time.Sleep(d)
	}
	return Result{Status: StatusAcked, Txn: "t", LatencyUS: 1}
}

// TestStallVisibleOpenLoopOnly is the coordinated-omission oracle: the same
// client, same stall, driven both ways. Open-loop arrivals keep their Poisson
// schedule, so everything scheduled during the stall queues and is measured
// from its scheduled arrival — the stall lands squarely in p99. The closed
// loop measures from dispatch and simply stops offering while the workers are
// stuck, so only Workers samples (out of ~1000) ever see the stall and p99
// stays oblivious. The thresholds leave wide margins for -race slowdowns.
func TestStallVisibleOpenLoopOnly(t *testing.T) {
	const (
		stall   = 120 * time.Millisecond
		txns    = 1000
		rate    = 5000.0 // txns/s → ~200ms schedule, stall covers most of it
		workers = 4
	)
	ctx := context.Background()
	mk := func(i int) Request { return Request{Session: "s", Kind: "transfer"} }

	open := &Pool{Client: &stallClient{trigger: 100, stall: stall}, Workers: workers}
	or := open.Run(ctx, OpenLoop(ctx, Wall, txns, rate, rand.New(rand.NewSource(1)), mk))
	if or.Acked != txns {
		t.Fatalf("open loop: acked %d of %d (samples %v)", or.Acked, txns, or.ErrorSamples)
	}
	openP99 := time.Duration(or.Latency.Percentile(99))

	closed := &Pool{Client: &stallClient{trigger: 100, stall: stall}, Workers: workers}
	cr := closed.Run(ctx, ClosedLoop(ctx, txns, mk))
	if cr.Acked != txns {
		t.Fatalf("closed loop: acked %d of %d (samples %v)", cr.Acked, txns, cr.ErrorSamples)
	}
	closedP99 := time.Duration(cr.Latency.Percentile(99))

	t.Logf("stall=%v: open-loop p99=%v closed-loop p99=%v", stall, openP99, closedP99)
	if openP99 < stall/3 {
		t.Errorf("open-loop p99 %v should expose the %v stall (≥%v expected)", openP99, stall, stall/3)
	}
	if closedP99 > stall/2 {
		t.Errorf("closed-loop p99 %v should hide the %v stall (coordinated omission) — got more than %v", closedP99, stall, stall/2)
	}
	if openP99 < 4*closedP99 {
		t.Errorf("open-loop p99 %v should dwarf closed-loop p99 %v", openP99, closedP99)
	}
}

// TestPoolKeepIDs pins the report-memory contract: IDs are retained only on
// request, so multi-million-txn cells stay O(1) in run length.
func TestPoolKeepIDs(t *testing.T) {
	ctx := context.Background()
	mk := func(i int) Request { return Request{Session: "s"} }
	fast := &stallClient{trigger: -1}

	p := &Pool{Client: fast, Workers: 2}
	if r := p.Run(ctx, ClosedLoop(ctx, 50, mk)); len(r.AckedIDs) != 0 {
		t.Errorf("KeepIDs off: got %d retained IDs, want 0", len(r.AckedIDs))
	}
	p = &Pool{Client: fast, Workers: 2, KeepIDs: true}
	if r := p.Run(ctx, ClosedLoop(ctx, 50, mk)); len(r.AckedIDs) != 50 {
		t.Errorf("KeepIDs on: got %d retained IDs, want 50", len(r.AckedIDs))
	}
}

// TestOpenLoopSchedule checks the generator against the Poisson model: n
// arrivals at rate r should span about n/r seconds of schedule,
// non-decreasing (gaps can round to zero nanoseconds at high rates),
// independent of how fast the consumer drains them.
func TestOpenLoopSchedule(t *testing.T) {
	ctx := context.Background()
	const n, rate = 2000, 100_000.0
	ch := OpenLoop(ctx, Wall, n, rate, rand.New(rand.NewSource(7)), func(i int) Request { return Request{} })
	var first, last time.Time
	count := 0
	for a := range ch {
		if a.At.IsZero() {
			t.Fatal("open-loop arrival without a schedule")
		}
		if count == 0 {
			first = a.At
		} else if a.At.Before(last) {
			t.Fatalf("arrival %d scheduled before its predecessor", count)
		}
		last = a.At
		count++
	}
	if count != n {
		t.Fatalf("got %d arrivals, want %d", count, n)
	}
	span := last.Sub(first).Seconds()
	want := float64(n) / rate
	if span < want/2 || span > want*2 {
		t.Errorf("schedule span %.3fs, want ~%.3fs for %d arrivals at %.0f/s", span, want, n, rate)
	}
}

// TestTxnBodyBytes: what HTTPClient.Do puts on the wire is byte-identical to
// the sorted-key map encoding it used to build, for all three kinds and for
// ids json escapes.
func TestTxnBodyBytes(t *testing.T) {
	var got []byte
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got, _ = io.ReadAll(r.Body)
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	c := NewHTTPClient(srv.URL, srv.Client())
	for _, r := range []Request{
		{Session: "e3-s000017", Kind: "transfer"},
		{Session: "s000001", Kind: "audit", DeadlineMS: 250},
		{Session: "s<&>\"\\é", Kind: "credit", DeadlineMS: -1},
	} {
		if res := c.Do(context.Background(), r); res.Status != StatusDraining {
			t.Fatalf("request %+v: %+v", r, res)
		}
		want, err := json.Marshal(map[string]any{"session": r.Session, "kind": r.Kind, "deadline_ms": r.DeadlineMS})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("request %+v\n sent %s\n want %s", r, got, want)
		}
	}
}

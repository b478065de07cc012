package serve

import (
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"time"

	"mla/internal/history"
	"mla/internal/metrics"
	"mla/internal/model"
	"mla/internal/serve/loadgen"
)

// SelfTestOptions shapes one end-to-end exercise of the server (see
// SelfTest). The zero value is filled with the CI-sized defaults.
type SelfTestOptions struct {
	// Server configuration; zero value takes DefaultConfig. The verdict rests
	// on the history spool: an empty SpoolPath becomes a temp file for the run.
	Config Config

	// Load shape.
	Sessions      int
	Txns          int
	Rate          float64 // arrivals/sec per session
	AuditPct      int
	CreditPct     int
	DisconnectPct int

	// DrainAfter triggers the mid-run graceful drain this long into the
	// load; 0 drains only after the load completes. Transactions offered
	// after the drain must be refused with 503, never lost.
	DrainAfter time.Duration

	// Overload shrinks the admission capacity to force shedding: the run
	// passes only if 429s were actually produced and every shed request
	// was refused cleanly.
	Overload bool

	// P99SLO, when nonzero, bounds the acked commits' p99 latency.
	P99SLO time.Duration

	// TriggerDrain, when non-nil, is invoked (once, from its own
	// goroutine) when the drain moment arrives, instead of calling drain
	// directly — cmd/mlaserve routes this through a real SIGTERM so the
	// signal path itself is under test. The callback must eventually cause
	// drain() to run; drain is the Front's Drain.
	TriggerDrain func(drain func())

	// Out, when non-nil, receives progress lines.
	Out io.Writer
}

// SelfTestReport is the verdict: the load report, the server's final
// stats, the history-checker result, and every assertion that failed. P99
// is the acked transactions' open-loop latency, timed from the scheduled
// arrival.
type SelfTestReport struct {
	Load     *loadgen.PoolReport
	Stats    Stats
	History  *history.Report
	P99      time.Duration
	Problems []string
}

// OK reports whether every assertion held.
func (r *SelfTestReport) OK() bool { return len(r.Problems) == 0 }

// Summary renders the report as a table.
func (r *SelfTestReport) Summary() *metrics.Table {
	t := metrics.NewTable("mlaserve selftest", "metric", "value")
	t.Row("offered", r.Load.Offered)
	t.Row("acked (200)", r.Load.Acked)
	t.Row("deadline (408)", r.Load.Deadline)
	t.Row("shed (429)", r.Load.Shed)
	t.Row("draining (503)", r.Load.Draining)
	t.Row("disconnected", r.Load.Canceled)
	t.Row("retries", r.Load.Retries)
	t.Row("down", r.Load.Down)
	t.Row("errors", r.Load.Errors)
	t.Row("p99 latency", r.P99.String())
	if r.History != nil {
		t.Row("history", r.History.Summary())
	}
	verdict := "PASS"
	if !r.OK() {
		verdict = fmt.Sprintf("FAIL (%d problems)", len(r.Problems))
	}
	t.Row("verdict", verdict)
	return t
}

// SelfTest runs the served lifecycle — the Front serve mode runs — against a
// real TCP listener: listen, start the server, mount it, offer an open-loop
// Poisson load from many concurrent client sessions (with injected
// disconnects), drain gracefully mid-run, close, and then audit the wreckage:
//
//   - every transaction acknowledged with 200 is durably committed on the
//     WAL and committed in the spooled history — zero lost acks;
//   - the spooled history passes the black-box MLA checker;
//   - under forced overload, requests were genuinely shed with 429 and
//     the engine stayed within its admission bounds;
//   - the drain left no transaction half-done and the acked p99, timed
//     from each scheduled arrival, is inside the SLO.
//
// It returns an error only for harness failures (listen, load transport);
// assertion failures land in Report.Problems so callers can print all of
// them.
func SelfTest(ctx context.Context, o SelfTestOptions) (*SelfTestReport, error) {
	if o.Sessions == 0 {
		o.Sessions = 100
	}
	if o.Txns == 0 {
		o.Txns = 2000
	}
	if o.Rate == 0 {
		o.Rate = 150
	}
	if o.Config.Families == 0 {
		o.Config = DefaultConfig()
	}
	if o.Config.SpoolPath == "" {
		f, err := os.CreateTemp("", "mla-selftest-*.spool")
		if err != nil {
			return nil, fmt.Errorf("selftest: %w", err)
		}
		f.Close()
		defer os.Remove(f.Name())
		o.Config.SpoolPath = f.Name()
	}
	if o.Overload {
		// Capacity far below the offered load: shedding must engage.
		o.Config.MaxInflight = 2
		o.Config.QueueDepth = 2
		o.Config.AdmitWait = time.Millisecond
	}
	if o.Out == nil {
		o.Out = io.Discard
	}
	logf := func(format string, args ...any) { fmt.Fprintf(o.Out, format+"\n", args...) }

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("selftest: listen: %w", err)
	}
	front := Listen(ln)
	srv, err := New(o.Config)
	if err != nil {
		front.Close(ctx)
		return nil, err
	}
	if o.Overload {
		// A commit waits for one device sync and nothing else; price it, or
		// two slots on a free device keep up with any load offered here.
		srv.medium.SyncDelay = 2 * time.Millisecond
	}
	front.Mount(srv)
	base := "http://" + ln.Addr().String()
	logf("selftest: serving on %s (%d sessions, %d txns, %.0f/s each)", base, o.Sessions, o.Txns, o.Rate)

	// The drain trigger: directly, or through the caller's signal path.
	drained := make(chan struct{})
	drain := func() {
		dctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := front.Drain(dctx); err != nil {
			logf("selftest: drain: %v", err)
		}
		close(drained)
	}
	if o.DrainAfter > 0 {
		go func() {
			select {
			case <-time.After(o.DrainAfter):
			case <-ctx.Done():
				return
			}
			logf("selftest: triggering mid-run drain")
			if o.TriggerDrain != nil {
				o.TriggerDrain(drain)
			} else {
				drain()
			}
		}()
	}

	load, err := loadgen.Run(ctx, loadgen.Options{
		BaseURL:       base,
		Sessions:      o.Sessions,
		Txns:          o.Txns,
		Rate:          o.Rate,
		AuditPct:      o.AuditPct,
		CreditPct:     o.CreditPct,
		DisconnectPct: o.DisconnectPct,
		MaxRetries:    3,
		Seed:          o.Config.Seed + 17,
	})
	switch {
	case err != nil:
	case o.DrainAfter > 0:
		<-drained
	default:
		drain()
	}
	cctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	front.Drain(cctx) // a no-op unless the load failed before the drain
	closeErr := front.Close(cctx)
	if err != nil {
		return nil, err
	}

	rep := &SelfTestReport{Load: load, Stats: srv.Stats()}
	problem := func(format string, args ...any) {
		rep.Problems = append(rep.Problems, fmt.Sprintf(format, args...))
	}

	// Zero dropped acks: every 200 is durable on the WAL and committed in
	// the spooled history, which the black-box checker must accept. This is
	// THE serving contract — an ack that a crash, drain, or disconnect can
	// un-commit would make every client a liar downstream.
	lostWAL := 0
	for _, id := range load.AckedIDs {
		if !srv.Durable(model.TxnID(id)) {
			lostWAL++
		}
	}
	if lostWAL > 0 {
		problem("%d acked transactions not durable on the WAL", lostWAL)
	}
	if closeErr != nil {
		problem("%v", closeErr)
	}
	rep.History = auditSpool(o.Config.SpoolPath, load.AckedIDs, problem)

	if load.Errors > 0 {
		problem("%d protocol errors (beyond injected disconnects); samples: %v", load.Errors, load.ErrorSamples)
	}
	if load.Down > 0 {
		// The selftest never kills the server, so an unreachable server is
		// a real failure here (unlike in the crash-restart soak).
		problem("%d transport failures — the server was unreachable; samples: %v", load.Down, load.ErrorSamples)
	}
	if load.Acked == 0 {
		problem("no transaction was acknowledged — the run never got going")
	}
	if o.Overload && load.Shed == 0 && rep.Stats.Shed == 0 {
		problem("overload cell produced no 429s — admission control never engaged")
	}
	if o.DrainAfter > 0 && load.Draining == 0 {
		problem("mid-run drain produced no 503s — drain raced past the load")
	}
	if load.Latency.Count() > 0 {
		rep.P99 = time.Duration(load.Latency.Percentile(99))
		if o.P99SLO > 0 && rep.P99 > o.P99SLO {
			problem("acked p99 %v exceeds SLO %v", rep.P99, o.P99SLO)
		}
	}
	logf("selftest: %d offered, %d acked, %d shed, %d draining, p99 %v",
		load.Offered, load.Acked, load.Shed, load.Draining, rep.P99)
	return rep, nil
}

// auditSpool is the verdict the selftest and the soak both rest on: the
// spool at path — every boot that appended to it, torn tails and all — must
// merge into a history the black-box checker accepts, with every
// acknowledged transaction committed in it. Failures go to problem.
func auditSpool(path string, acked []string, problem func(format string, args ...any)) *history.Report {
	h, err := history.ReadSpoolFile(path)
	if err != nil {
		problem("history spool: %v", err)
		return nil
	}
	rep, err := history.Check(h)
	if err != nil {
		problem("history checker rejected the spool: %v", err)
		return nil
	}
	if !rep.Correctable {
		problem("spooled history is NOT multilevel atomic: %s", rep.Summary())
	}
	steps, _, _ := h.Committed() // cannot fail: Check just replayed the same log
	committed := make(map[model.TxnID]bool)
	for _, st := range steps {
		committed[st.Txn] = true
	}
	missing := 0
	for _, id := range acked {
		if !committed[model.TxnID(id)] {
			missing++
		}
	}
	if missing > 0 {
		problem("%d acked transactions missing from the spooled history", missing)
	}
	return rep
}

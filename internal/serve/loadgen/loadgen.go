// Package loadgen is an open-loop load driver for mlaserve: arrivals
// follow a Poisson process, so offered load does NOT slow down when the
// server does — exactly the regime where admission control and load
// shedding earn their keep (a closed-loop client would politely
// self-throttle and never produce a 429).
//
// The package is structured as three layers:
//
//   - Client (client.go) executes individual transactions — over HTTP
//     against a real server, or in-process against the bare engine (the
//     bench package's client), so one driver measures both regimes.
//   - Pool (pool.go) runs a bounded set of workers over a Client,
//     consuming a scheduled Arrival stream and measuring latency from the
//     scheduled arrival time (coordinated-omission-safe). There is no
//     goroutine per request.
//   - Run (this file) is the batteries-included entry point the selftest
//     and soak harnesses use: Poisson arrivals, workload mix, injected
//     mid-flight disconnects, 429 retry with capped backoff. It returns the
//     pool's report.
//
// The generator injects client misbehavior on purpose: a fraction of
// requests disconnect mid-flight (the context is cancelled while the
// transaction runs), which the server must answer by withdrawing the
// transaction at its next breakpoint without losing anyone else's work.
package loadgen

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"time"

	"mla/internal/metrics"
)

// Options configures one load run.
type Options struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:7070".
	BaseURL string
	// Sessions is the number of concurrent client sessions.
	Sessions int
	// Txns is the total number of transactions to offer across sessions.
	Txns int
	// Rate is the Poisson arrival rate per session, in arrivals/second
	// (the pool offers Sessions×Rate in total; superposed Poisson
	// processes are Poisson).
	Rate float64
	// AuditPct and CreditPct set the kind mix; the rest are transfers.
	AuditPct  int
	CreditPct int
	// DisconnectPct is the percentage of requests abandoned mid-flight:
	// the client cancels its context a few milliseconds in, simulating a
	// dropped connection.
	DisconnectPct int
	// MaxRetries bounds the capped-backoff retries of a 429-shed request
	// (fault-style: base doubles per try with jitter, capped). 0 disables
	// retrying.
	MaxRetries int
	// Seed drives arrivals, mix, disconnects, and backoff jitter.
	Seed int64
	// Client overrides the HTTP client (tests inject httptest transports).
	Client *http.Client
}

// Run drives the load through a worker Pool — four workers per session,
// within [8, 128] — and blocks until every offered transaction resolved or
// ctx is cancelled. The returned report is the pool's, complete either way;
// a session that fails to open charges its share of Txns to Errors.
func Run(ctx context.Context, o Options) (*PoolReport, error) {
	if o.Sessions <= 0 || o.Txns <= 0 {
		return nil, fmt.Errorf("loadgen: need sessions and txns, got %d/%d", o.Sessions, o.Txns)
	}
	if o.Rate <= 0 {
		o.Rate = 200
	}
	client := NewHTTPClient(o.BaseURL, o.Client)

	rep := &PoolReport{Latency: metrics.NewHistogram()}
	var sessions []string
	for si := 0; si < o.Sessions; si++ {
		id, err := client.OpenSession(ctx)
		if err != nil {
			// This session's share of the load cannot be offered; charge it
			// to Errors so the accounting stays visible.
			share := o.Txns / o.Sessions
			if si < o.Txns%o.Sessions {
				share++
			}
			rep.Errors += share
			rep.note("open session: " + err.Error())
			continue
		}
		sessions = append(sessions, id)
	}
	if len(sessions) == 0 {
		return rep, nil
	}
	txns := o.Txns - rep.Errors

	rng := rand.New(rand.NewSource(o.Seed))
	mk := func(i int) Request {
		kind := "transfer"
		switch p := rng.Intn(100); {
		case p < o.AuditPct:
			kind = "audit"
		case p < o.AuditPct+o.CreditPct:
			kind = "credit"
		}
		return Request{
			Session:    sessions[i%len(sessions)],
			Kind:       kind,
			Disconnect: rng.Intn(100) < o.DisconnectPct,
			Jitter:     time.Duration(rng.Int63n(int64(backoffBase) + 1)),
		}
	}

	pool := &Pool{
		Client:     client,
		Workers:    min(max(4*o.Sessions, 8), 128),
		MaxRetries: o.MaxRetries,
		KeepIDs:    true, // the soak's Reverify audit consumes AckedIDs
	}
	rate := o.Rate * float64(len(sessions))
	rep.merge(pool.Run(ctx, OpenLoop(ctx, Wall, txns, rate, rng, mk)))

	// Sessions are closed only now: requests (and their backoff retries)
	// outlive the arrival schedule, and closing the session under them
	// would turn live work into 404s.
	for _, id := range sessions {
		client.CloseSession(id)
	}
	return rep, nil
}

package bench

import (
	"fmt"
	"time"

	"mla/internal/metrics"
	"mla/internal/serve"
)

// E21Serve runs the mlaserve front-end loop end to end, in process: a
// resident engine behind the HTTP API, an open-loop Poisson load from many
// concurrent client sessions with injected mid-flight disconnects, one
// cell that drains gracefully mid-run and one that is capacity-starved so
// admission control must shed. Each cell's acknowledged transactions are
// audited against the WAL and the spooled history, and the history must
// pass the black-box multilevel-atomicity checker — the serving contract
// (a 200 is a durable, correctly interleaved commit) is what the table
// shows holding under churn.
func E21Serve(o Config) (*metrics.Table, error) {
	t := metrics.NewTable("E21: resident front-end under open-loop load (drain + overload)",
		"cell", "offered", "acked", "shed", "draining", "disconnected", "p99", "history", "verdict")
	sc := o.scale()

	cells := []struct {
		name string
		opts serve.SelfTestOptions
	}{
		{"drain", serve.SelfTestOptions{
			Sessions:      25 * sc,
			Txns:          500 * sc,
			Rate:          20,
			AuditPct:      2,
			CreditPct:     8,
			DisconnectPct: 5,
			DrainAfter:    time.Duration(sc) * 500 * time.Millisecond,
			P99SLO:        5 * time.Second,
		}},
		{"overload", serve.SelfTestOptions{
			Sessions: 8 * sc,
			Txns:     120 * sc,
			Rate:     400,
			Overload: true,
		}},
	}
	for _, cell := range cells {
		cell.opts.Config = serve.DefaultConfig()
		cell.opts.Config.Seed = o.Seed
		cell.opts.Config.Telemetry = o.Telemetry
		rep, err := serve.SelfTest(o.ctx(), cell.opts)
		if err != nil {
			return nil, fmt.Errorf("E21 %s: %w", cell.name, err)
		}
		verdict := "PASS"
		if !rep.OK() {
			verdict = fmt.Sprintf("FAIL: %v", rep.Problems)
		}
		hist := "-"
		if rep.History != nil {
			hist = rep.History.Summary()
		}
		// Shed is "client-final/server-total": the server may shed a burst
		// that the client's capped backoff then lands on a later try.
		t.Row(cell.name, rep.Load.Offered, rep.Load.Acked,
			fmt.Sprintf("%d/%d", rep.Load.Shed, rep.Stats.Shed), rep.Load.Draining,
			rep.Load.Canceled, rep.P99.Round(time.Microsecond).String(), hist, verdict)
		if !rep.OK() {
			return nil, fmt.Errorf("E21 %s: %v", cell.name, rep.Problems)
		}
	}
	return t, nil
}

package sim

import (
	"testing"

	"mla/internal/bank"
	"mla/internal/sched"
	"mla/internal/telemetry"
)

// TestSimTelemetry runs a contended banking simulation with a telemetry
// sink attached and checks the recorded view agrees with the result: one
// txn span per committed transaction (sealed, nested in the run span, on
// simulated-time microsecond coordinates), one commit-group instant per
// group, one abort instant per rollback, and the sim.* / control.*
// counters folded in.
func TestSimTelemetry(t *testing.T) {
	p := bank.DefaultParams()
	p.Transfers = 10
	p.BankAudits = 1
	p.CreditorAudits = 1
	wl := bank.Generate(p)

	tel := telemetry.New()
	cfg := DefaultConfig()
	cfg.Telemetry = tel
	res, err := Run(cfg, wl.Programs, sched.NewPreventer(wl.Nest, wl.Spec), wl.Spec, wl.Init)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Committed != len(wl.Programs) {
		t.Fatalf("committed %d/%d", res.Stats.Committed, len(wl.Programs))
	}

	var runs, txns, groups, aborts int
	var runSpan telemetry.Span
	spans := tel.Trace.Spans()
	for _, s := range spans {
		switch s.Cat {
		case "run":
			runs++
			runSpan = s
		case "txn":
			txns++
		case "commit-group":
			groups++
		case "abort":
			aborts++
		}
		if s.Args["open"] == "true" {
			t.Errorf("%s span %q left open", s.Cat, s.Name)
		}
	}
	if runs != 1 {
		t.Fatalf("run spans = %d, want 1", runs)
	}
	if txns != res.Stats.Committed {
		t.Errorf("txn spans = %d, committed = %d", txns, res.Stats.Committed)
	}
	if groups != len(res.CommitGroups) {
		t.Errorf("commit-group instants = %d, groups = %d", groups, len(res.CommitGroups))
	}
	if aborts != res.Stats.Aborts {
		t.Errorf("abort instants = %d, want %d", aborts, res.Stats.Aborts)
	}
	// Simulated-time mapping: the run span ends at SimUnit(last commit).
	if runSpan.End != telemetry.SimUnit(res.Time) {
		t.Errorf("run span ends at %d ns, want %d", runSpan.End, telemetry.SimUnit(res.Time))
	}
	for _, s := range spans {
		if s.Cat != "txn" {
			continue
		}
		if s.Parent != runSpan.ID {
			t.Errorf("txn span %q not parented to the run span", s.Name)
		}
		if s.Start < runSpan.Start || s.End > runSpan.End {
			t.Errorf("txn span %q [%d,%d] escapes the run span [%d,%d]",
				s.Name, s.Start, s.End, runSpan.Start, runSpan.End)
		}
	}
	if got := tel.Metrics.Counter("sim.committed").Value(); got != int64(res.Stats.Committed) {
		t.Errorf("sim.committed = %d, want %d", got, res.Stats.Committed)
	}
	if got := tel.Metrics.Counter("sim.steps").Value(); got != res.Stats.Steps {
		t.Errorf("sim.steps = %d, want %d", got, res.Stats.Steps)
	}
	if got := tel.Metrics.Counter("control.prevent.waits").Value(); got == 0 || got != int64(res.Control.Waits) {
		t.Errorf("control.prevent.waits = %d, want %d (nonzero)", got, res.Control.Waits)
	}
}

package dist

import (
	"testing"

	"mla/internal/bank"
	"mla/internal/breakpoint"
	"mla/internal/model"
	"mla/internal/nest"
	"mla/internal/sched"
	"mla/internal/sim"
	"mla/internal/telemetry"
)

// contractFixture builds one control of each kind over the same k=3 nest.
func contractFixture() map[string]sched.Control {
	n := nest.New(3)
	n.Add("t1", "g")
	n.Add("t2", "g")
	n.Add("t3", "solo")
	spec := breakpoint.Uniform{Levels: 3, C: 2}
	procs := 4
	return map[string]sched.Control{
		"prevent":      sched.NewPreventer(n, spec),
		"detect":       sched.NewDetector(n, spec),
		"2pl":          sched.NewTwoPhase(),
		"tso":          sched.NewTimestamp(),
		"serial":       sched.NewSerial(),
		"none":         sched.NewNone(),
		"dist-prevent": New(n, spec, procs, sim.OwnerFunc(procs), 0),
	}
}

// TestStatsAbortContractAcrossControls drives every control through the
// same harness-level forced-abort scenario: the accounting contract says
// the executor counts its own rollbacks, so Aborted, and the restarts that
// follow it, must leave every control's Stats exactly as they were,
// regardless of how (or whether) it would have decided the aborts itself.
func TestStatsAbortContractAcrossControls(t *testing.T) {
	for name, c := range contractFixture() {
		c.Begin("t1", 1)
		c.Begin("t2", 2)
		c.Begin("t3", 3)
		// One granted step for whoever gets it — grant patterns legitimately
		// differ across controls, but rollbacks must count nothing in any.
		if d := c.Request("t1", 1, "x"); d.Kind == sched.Grant {
			c.Performed("t1", 1, "x", 2)
		}
		before := c.Stats().Snapshot()
		// The harness rolls back two victims (e.g. a stall break closed over
		// a cascade), then, after restarts, a single further victim.
		c.Aborted([]model.TxnID{"t1", "t2"})
		c.Begin("t1", 4)
		c.Begin("t2", 5)
		c.Aborted([]model.TxnID{"t3"})
		if got := c.Stats().Snapshot(); got != before {
			t.Errorf("%s: Stats %+v after 3 victim rollbacks, want %+v as before them", name, got, before)
		}
	}
}

// TestAbortDecisionDoesNotCount: a Request that answers Abort counts one
// Wound when it names a victim other than the requester, and nothing else;
// the rollback the harness echoes back through Aborted counts nothing in
// the control, since the executor counts its own rollbacks.
func TestAbortDecisionDoesNotCount(t *testing.T) {
	// TwoPhase: classic deadlock, the decision wounds the younger holder.
	tp := sched.NewTwoPhase()
	tp.Begin("old", 1)
	tp.Begin("young", 9)
	tp.Request("young", 1, "x")
	tp.Request("old", 1, "y")
	tp.Request("young", 2, "y") // young waits on old
	d := tp.Request("old", 2, "x")
	if d.Kind != sched.Abort {
		t.Fatalf("expected deadlock abort decision, got %v", d.Kind)
	}
	want := sched.Stats{Waits: 1, Wounds: 1}
	if got := tp.Stats().Snapshot(); got != want {
		t.Errorf("2pl: after the decision %+v, want %+v", got, want)
	}
	tp.Aborted(d.Victims)
	if got := tp.Stats().Snapshot(); got != want {
		t.Errorf("2pl: after Aborted(%v) %+v, want %+v", d.Victims, got, want)
	}

	// Timestamp: a self-abort decision counts no wound.
	ts := sched.NewTimestamp()
	ts.Begin("t1", 5)
	ts.Begin("t2", 9)
	ts.Request("t2", 1, "x")
	ts.Performed("t2", 1, "x", 0)
	d = ts.Request("t1", 1, "x")
	if d.Kind != sched.Abort {
		t.Fatalf("expected timestamp abort decision, got %v", d.Kind)
	}
	ts.Aborted(d.Victims)
	if got := ts.Stats().Snapshot(); got != (sched.Stats{}) {
		t.Errorf("tso: counted %+v for a self-abort", got)
	}
}

// TestControlAbortsMatchSimulator runs the same contended banking workload
// under Detector, Preventer, TwoPhase, and dist.Preventer and checks the
// contract's end-to-end consequence: without partial recovery, every
// rollback the simulator counts is one full-rollback instant in its trace,
// the rollbacks the control is told of through Aborted, and the run rolls
// at least one back.
func TestControlAbortsMatchSimulator(t *testing.T) {
	p := bank.DefaultParams()
	p.Transfers = 14
	p.Families = 2
	p.BankAudits = 1
	p.CreditorAudits = 2
	for _, name := range []string{"prevent", "detect", "2pl", "dist-prevent"} {
		wl := bank.Generate(p)
		var c sched.Control
		switch name {
		case "prevent":
			c = sched.NewPreventer(wl.Nest, wl.Spec)
		case "detect":
			c = sched.NewDetector(wl.Nest, wl.Spec)
		case "2pl":
			c = sched.NewTwoPhase()
		case "dist-prevent":
			c = New(wl.Nest, wl.Spec, sim.Processors, sim.OwnerFunc(sim.Processors), 5)
		}
		tel := telemetry.New()
		cfg := sim.DefaultConfig()
		cfg.Telemetry = tel
		res, err := sim.Run(cfg, wl.Programs, c, wl.Spec, wl.Init)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		full := 0
		for _, sp := range tel.Trace.Spans() {
			if sp.Cat == "abort" && sp.Args["kind"] == "full" {
				full++
			}
		}
		if res.Stats.Aborts == 0 || res.Stats.Aborts != full {
			t.Errorf("%s: simulator counted %d rollbacks, trace records %d full rollbacks (want equal and nonzero)",
				name, res.Stats.Aborts, full)
		}
	}
}

package dist

import (
	"testing"

	"mla/internal/bank"
	"mla/internal/breakpoint"
	"mla/internal/model"
	"mla/internal/nest"
	"mla/internal/sched"
	"mla/internal/sim"
)

// contractFixture builds one control of each kind over the same k=3 nest.
func contractFixture() (map[string]sched.Control, *nest.Nest, breakpoint.Spec) {
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
	}, n, spec
}

// TestStatsAbortContractAcrossControls drives every control through the
// same harness-level forced-abort scenario: the accounting contract says
// Stats.Aborts counts victims, once each, inside Aborted — so all controls
// must report the identical total regardless of how (or whether) they
// would have decided the aborts themselves.
func TestStatsAbortContractAcrossControls(t *testing.T) {
	controls, _, _ := contractFixture()
	for name, c := range controls {
		c.Begin("t1", 1)
		c.Begin("t2", 2)
		c.Begin("t3", 3)
		// One granted step for whoever gets it — grant patterns legitimately
		// differ across controls, but abort accounting must not.
		if d := c.Request("t1", 1, "x"); d.Kind == sched.Grant {
			c.Performed("t1", 1, "x", 2)
		}
		// The harness rolls back two victims (e.g. a stall break closed over
		// a cascade), then, after restarts, a single further victim.
		c.Aborted([]model.TxnID{"t1", "t2"})
		c.Begin("t1", 4)
		c.Begin("t2", 5)
		c.Aborted([]model.TxnID{"t3"})
		if got := c.Stats().Aborts; got != 3 {
			t.Errorf("%s: Stats.Aborts = %d after 3 victim rollbacks, want 3", name, got)
		}
	}
}

// TestAbortDecisionDoesNotCount: a Request that answers Abort must leave
// Stats.Aborts untouched (the harness echoes the victims back through
// Aborted); only Wounds is counted at decision time.
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
	if tp.Stats().Aborts != 0 {
		t.Errorf("2pl: abort decision bumped Stats.Aborts to %d", tp.Stats().Aborts)
	}
	if tp.Stats().Wounds != 1 {
		t.Errorf("2pl: wounds = %d, want 1", tp.Stats().Wounds)
	}
	tp.Aborted(d.Victims)
	if tp.Stats().Aborts != len(d.Victims) {
		t.Errorf("2pl: Stats.Aborts = %d after Aborted(%v)", tp.Stats().Aborts, d.Victims)
	}

	// Timestamp: a self-abort decision, likewise uncounted until Aborted.
	ts := sched.NewTimestamp()
	ts.Begin("t1", 5)
	ts.Begin("t2", 9)
	ts.Request("t2", 1, "x")
	ts.Performed("t2", 1, "x", 0)
	d = ts.Request("t1", 1, "x")
	if d.Kind != sched.Abort {
		t.Fatalf("expected timestamp abort decision, got %v", d.Kind)
	}
	if ts.Stats().Aborts != 0 || ts.Stats().Wounds != 0 {
		t.Errorf("tso: decision-time counters wrong: %+v", *ts.Stats())
	}
	ts.Aborted(d.Victims)
	if ts.Stats().Aborts != 1 {
		t.Errorf("tso: Stats.Aborts = %d after one victim", ts.Stats().Aborts)
	}
}

// TestControlAbortsMatchSimulator runs the same contended banking workload
// under Detector, Preventer, TwoPhase, and dist.Preventer and checks the
// contract's end-to-end consequence: without partial recovery, the
// control's victim count equals the simulator's full-rollback count
// exactly — the numbers are finally mutually comparable.
func TestControlAbortsMatchSimulator(t *testing.T) {
	p := bank.DefaultParams()
	p.Transfers = 14
	p.Families = 2
	p.BankAudits = 1
	p.CreditorAudits = 2
	cfg := sim.DefaultConfig()
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
		res, err := sim.Run(cfg, wl.Programs, c, wl.Spec, wl.Init)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Control.Aborts != res.Stats.Aborts {
			t.Errorf("%s: control counted %d victim rollbacks, simulator %d",
				name, res.Control.Aborts, res.Stats.Aborts)
		}
	}
}

package dist

import (
	"testing"

	"mla/internal/bank"
	"mla/internal/breakpoint"
	"mla/internal/coherent"
	"mla/internal/model"
	"mla/internal/nest"
	"mla/internal/sched"
	"mla/internal/sim"
)

func runBank(t *testing.T, delay int64, seed int64) (*sim.Result, *bank.Workload) {
	t.Helper()
	p := bank.DefaultParams()
	p.Transfers = 14
	p.BankAudits = 1
	p.CreditorAudits = 2
	p.Seed = seed
	wl := bank.Generate(p)
	cfg := sim.DefaultConfig()
	c := New(wl.Nest, wl.Spec, sim.Processors, sim.OwnerFunc(sim.Processors), delay)
	res, err := sim.Run(cfg, wl.Programs, c, wl.Spec, wl.Init)
	if err != nil {
		t.Fatalf("delay=%d: %v", delay, err)
	}
	return res, wl
}

// TestDistributedSoundness: at every announcement delay the distributed
// preventer must admit only Theorem-2-correctable executions and preserve
// the banking invariants — staleness may slow things down but never breaks
// correctness.
func TestDistributedSoundness(t *testing.T) {
	for _, delay := range []int64{0, 5, 25, 100} {
		for seed := int64(1); seed <= 3; seed++ {
			res, wl := runBank(t, delay, seed)
			inv := wl.Check(res.Exec, res.Final)
			if !inv.ConservationOK {
				t.Errorf("delay=%d seed=%d: money not conserved", delay, seed)
			}
			if inv.AuditsInexact > 0 {
				t.Errorf("delay=%d seed=%d: inexact audits", delay, seed)
			}
			if inv.TraceValid != nil {
				t.Errorf("delay=%d seed=%d: %v", delay, seed, inv.TraceValid)
			}
			ok, err := coherent.Correctable(res.Exec, wl.Nest, wl.Spec)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Errorf("delay=%d seed=%d: non-correctable execution admitted", delay, seed)
			}
		}
	}
}

// TestZeroDelayMatchesNoStaleWaits: with instantaneous announcements there
// are, by definition, no staleness-induced waits.
func TestZeroDelayNoStaleWaits(t *testing.T) {
	p := bank.DefaultParams()
	p.Transfers = 10
	wl := bank.Generate(p)
	cfg := sim.DefaultConfig()
	c := New(wl.Nest, wl.Spec, sim.Processors, sim.OwnerFunc(sim.Processors), 0)
	if _, err := sim.Run(cfg, wl.Programs, c, wl.Spec, wl.Init); err != nil {
		t.Fatal(err)
	}
	if c.StaleWaits != 0 {
		t.Errorf("zero delay produced %d stale waits", c.StaleWaits)
	}
}

// TestStalenessCostsWaits: larger delays cannot reduce total waits, and on
// a contended workload they should produce some staleness-attributed ones.
func TestStalenessCostsWaits(t *testing.T) {
	p := bank.DefaultParams()
	p.Transfers = 16
	p.Families = 2
	wl0 := bank.Generate(p)
	cfg := sim.DefaultConfig()
	c0 := New(wl0.Nest, wl0.Spec, sim.Processors, sim.OwnerFunc(sim.Processors), 0)
	if _, err := sim.Run(cfg, wl0.Programs, c0, wl0.Spec, wl0.Init); err != nil {
		t.Fatal(err)
	}
	wl1 := bank.Generate(p)
	c1 := New(wl1.Nest, wl1.Spec, sim.Processors, sim.OwnerFunc(sim.Processors), 200)
	if _, err := sim.Run(cfg, wl1.Programs, c1, wl1.Spec, wl1.Init); err != nil {
		t.Fatal(err)
	}
	if c1.StaleWaits == 0 {
		t.Log("note: no stale waits at delay=200 (workload may be too gentle)")
	}
	if c1.Stats().Waits < c0.Stats().Waits {
		t.Errorf("stale views waited less (%d) than fresh views (%d)",
			c1.Stats().Waits, c0.Stats().Waits)
	}
}

// TestStaleViewDelaysGrant drives the control directly: a boundary that
// would admit a peer is visible immediately at the entity's owner replica
// and invisible at a remote replica until the announcement matures on the
// bus — and the resulting wait is attributed to staleness.
func TestStaleViewDelaysGrant(t *testing.T) {
	n := nest.New(3)
	n.Add("t1", "g")
	n.Add("t2", "g") // level(t1,t2) = 2
	spec := breakpoint.Uniform{Levels: 3, C: 2}
	// Two processors: x lives at 0, y at 1.
	owner := func(e model.EntityID) int {
		if e == "x" {
			return 0
		}
		return 1
	}
	c := New(n, spec, 2, owner, 50)
	c.Tick(0)
	c.Begin("t1", 1)
	c.Begin("t2", 2)
	if d := c.Request("t1", 1, "x"); d.Kind != sched.Grant {
		t.Fatal("fresh entity must grant")
	}
	// A level-2 boundary after the step: the owner replica sees it at once,
	// the remote replica only when the broadcast matures.
	c.Performed("t1", 1, "x", 2)
	if v := c.reps[0].view["t1"]; v == nil || v.bound[2] != 1 {
		t.Fatal("owner replica must learn its own boundary immediately")
	}
	if v := c.reps[1].view["t1"]; v != nil && v.bound[2] != 0 {
		t.Fatal("remote replica saw the boundary before the announcement matured")
	}
	if d := c.Request("t2", 1, "x"); d.Kind != sched.Grant {
		t.Fatal("owner processor sees the boundary immediately")
	}
	c.Performed("t2", 1, "x", 2)
	// t2 moves on to y at processor 1, whose replica has not yet heard
	// t1's boundary: the request waits, and only because of staleness.
	if d := c.Request("t2", 2, "y"); d.Kind != sched.Wait {
		t.Fatalf("remote processor should wait on the unmatured announcement, got %v", d.Kind)
	}
	if c.StaleWaits == 0 {
		t.Error("the wait was caused purely by staleness and must be attributed")
	}
	c.Tick(50) // announcements mature
	if v := c.reps[1].view["t1"]; v == nil || v.bound[2] != 1 {
		t.Fatal("announcement did not mature")
	}
	if d := c.Request("t2", 2, "y"); d.Kind != sched.Grant {
		t.Fatal("matured boundary must admit the remote request")
	}
}

func TestNewValidation(t *testing.T) {
	wl := bank.Generate(bank.DefaultParams())
	defer func() {
		if recover() == nil {
			t.Error("procs < 1 must panic")
		}
	}()
	New(wl.Nest, wl.Spec, 0, sim.OwnerFunc(1), 0)
}

// TestFinishAckRetiresViewTables pins the soft-state reclamation protocol:
// a finished transaction's replica views are pruned only once every peer
// has acknowledged the finish — the round-trip of the finish message and
// its ack at the configured latency — and not a tick earlier, since until
// the ack the origin cannot know the peer learned the finish.
func TestFinishAckRetiresViewTables(t *testing.T) {
	n := nest.New(3)
	n.Add("t1", "g")
	n.Add("t2", "g")
	spec := breakpoint.Uniform{Levels: 3, C: 2}
	c := New(n, spec, 2, func(model.EntityID) int { return 0 }, 50)
	c.Tick(0)
	c.Begin("t1", 1)
	if d := c.Request("t1", 1, "x"); d.Kind != sched.Grant {
		t.Fatal("fresh entity must grant")
	}
	c.Performed("t1", 1, "x", 2)
	c.Finished("t1")
	c.Retired("t1")
	// The finish is still in flight to processor 1: state must survive.
	if c.retiredAll["t1"] {
		t.Fatal("retired before the peer acknowledged the finish")
	}
	if c.reps[0].view["t1"] == nil || !c.reps[0].view["t1"].finished {
		t.Fatal("origin replica must record the finish at once")
	}
	c.Tick(49)
	if c.retiredAll["t1"] {
		t.Fatal("retired while the finish was still in flight")
	}
	c.Tick(50) // finish delivered at peer; ack now in flight back
	if c.retiredAll["t1"] {
		t.Fatal("retired before the ack returned")
	}
	if v := c.reps[1].view["t1"]; v == nil || !v.finished {
		t.Fatal("peer replica must record the delivered finish")
	}
	c.Tick(100) // ack delivered: all peers known reached
	if !c.retiredAll["t1"] {
		t.Fatal("not retired after the full finish/ack round-trip")
	}
	if c.reps[0].view["t1"] != nil || c.reps[1].view["t1"] != nil {
		t.Fatal("view tables leaked after retirement")
	}
	if c.pendingFinish["t1"] != nil {
		t.Fatal("retransmission record leaked after retirement")
	}
	// A later transaction still sees t1 as closed (retired ⇒ closed).
	c.Begin("t2", 2)
	if d := c.Request("t2", 1, "x"); d.Kind != sched.Grant {
		t.Fatal("retired transactions must impose no constraints")
	}

	// Zero latency: the finish/ack round-trip completes inline, so the
	// transaction retires during Finished itself.
	c0 := New(n, spec, 2, func(model.EntityID) int { return 0 }, 0)
	c0.Begin("t1", 1)
	c0.Request("t1", 1, "x")
	c0.Performed("t1", 1, "x", 2)
	c0.Finished("t1")
	if !c0.retiredAll["t1"] || c0.reps[0].view["t1"] != nil {
		t.Fatal("zero-latency finish must retire inline")
	}
}

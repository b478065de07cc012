package dist

import (
	"testing"

	"mla/internal/breakpoint"
	"mla/internal/model"
	"mla/internal/nest"
	"mla/internal/sched"
	"mla/internal/sim"
)

func TestNameIncludesDelay(t *testing.T) {
	n := nest.New(2)
	n.Add("t")
	c := New(n, breakpoint.Uniform{Levels: 2, C: 2}, 2, sim.OwnerFunc(2), 25)
	if c.Name() != "dist-prevent/d=25" {
		t.Errorf("Name = %q", c.Name())
	}
	if c.Stats() == nil {
		t.Error("Stats must not be nil")
	}
}

func TestKMismatchPanics(t *testing.T) {
	n := nest.New(3)
	n.Add("t", "g")
	defer func() {
		if recover() == nil {
			t.Error("k mismatch must panic")
		}
	}()
	New(n, breakpoint.Uniform{Levels: 2, C: 2}, 1, sim.OwnerFunc(1), 0)
}

// TestDeadlockDetectionAcrossProcessors: a cycle whose edges live at
// different processors is invisible to any single replica, so no Request
// can answer Abort synchronously. Edge-chasing probes must find it: each
// blocked replica periodically launches a probe along its waits-for edges,
// the probe hops to the processor where the blocker is sited, and a probe
// that returns to its initiator closes the cycle and aborts the youngest
// transaction seen on the path.
func TestDeadlockDetectionAcrossProcessors(t *testing.T) {
	// t1 holds x (proc 0) and wants y (proc 1); t2 holds y and wants x.
	// With k=2 and no shared group, level(t1,t2)=1: each must wait for the
	// other to finish.
	n := nest.New(2)
	n.Add("t1")
	n.Add("t2")
	spec := breakpoint.Uniform{Levels: 2, C: 2}
	owner := func(e model.EntityID) int {
		if e == "x" {
			return 0
		}
		return 1
	}
	c := New(n, spec, 2, owner, 10)
	c.Tick(0)
	c.Begin("t1", 1)
	c.Begin("t2", 2)
	if d := c.Request("t1", 1, "x"); d.Kind != sched.Grant {
		t.Fatal("t1 x")
	}
	c.Performed("t1", 1, "x", 2)
	if d := c.Request("t2", 1, "y"); d.Kind != sched.Grant {
		t.Fatal("t2 y")
	}
	c.Performed("t2", 1, "y", 2)
	if d := c.Request("t1", 2, "y"); d.Kind != sched.Wait {
		t.Fatalf("t1 on y: %v", d.Kind)
	}
	// The closing edge is at processor 0, but t1's wait record lives at
	// processor 1: no replica sees the whole cycle, so the answer is Wait,
	// not a synchronous Abort.
	if d := c.Request("t2", 2, "x"); d.Kind != sched.Wait {
		t.Fatalf("t2 on x: got %v, want Wait (cycle spans processors)", d.Kind)
	}
	// Drive the clock: probes launch after ProbeAfter, chase the cycle,
	// and surface the victim through the async abort queue.
	var victims []model.TxnID
	for now := int64(1); now <= 500 && len(victims) == 0; now += 5 {
		c.Tick(now)
		victims = append(victims, c.TakeVictims()...)
	}
	if len(victims) != 1 || victims[0] != "t2" {
		t.Fatalf("victims = %v, want the youngest (t2)", victims)
	}
	if c.ProbeDeadlocks == 0 {
		t.Error("probe deadlock counter not incremented")
	}
	c.Aborted(victims)
	// t1 can proceed after the rollback.
	if d := c.Request("t1", 2, "y"); d.Kind != sched.Grant {
		t.Fatalf("t1 on y after rollback: %v", d.Kind)
	}
}

func TestRetiredCleansState(t *testing.T) {
	n := nest.New(2)
	n.Add("t1")
	n.Add("t2")
	spec := breakpoint.Uniform{Levels: 2, C: 2}
	c := New(n, spec, 1, sim.OwnerFunc(1), 0)
	c.Begin("t1", 1)
	c.Request("t1", 1, "x")
	c.Performed("t1", 1, "x", 2)
	c.Finished("t1")
	c.Retired("t1")
	c.Begin("t2", 2)
	if d := c.Request("t2", 1, "x"); d.Kind != sched.Grant {
		t.Fatal("retired transactions impose no constraints")
	}
}

// TestDistributedPartialUnsupported: the distributed control has no
// AbortedTo hook, so the simulator falls back to full aborts even with
// PartialRecovery enabled.
func TestDistributedPartialUnsupported(t *testing.T) {
	_, wl := runBank(t, 5, 7)
	// Run again with PartialRecovery on; no panic and no partial rollbacks.
	cfg := sim.DefaultConfig()
	cfg.PartialRecovery = true
	c := New(wl.Nest, wl.Spec, sim.Processors, sim.OwnerFunc(sim.Processors), 5)
	res, err := sim.Run(cfg, wl.Programs, c, wl.Spec, wl.Init)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.PartialRollbacks != 0 {
		t.Errorf("partial rollbacks = %d, want 0 (unsupported)", res.Stats.PartialRollbacks)
	}
}

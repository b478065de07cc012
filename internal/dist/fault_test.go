package dist

import (
	"testing"

	"mla/internal/bank"
	"mla/internal/breakpoint"
	"mla/internal/coherent"
	"mla/internal/fault"
	"mla/internal/model"
	"mla/internal/nest"
	mnet "mla/internal/net"
	"mla/internal/sim"
)

// TestNetFaultDropAndDelay drives the control directly through a scripted
// network policy: a dropped boundary announcement leaves the remote
// replica's view stale (the owner replica still learns its own boundary);
// a delayed one matures after the extra latency, even at Delay 0.
func TestNetFaultDropAndDelay(t *testing.T) {
	n := nest.New(3)
	n.Add("t1", "g")
	n.Add("t2", "g")
	spec := breakpoint.Uniform{Levels: 3, C: 2}
	owner := func(e model.EntityID) int {
		if e == "x" {
			return 0
		}
		return 1
	}
	drop, extra := true, int64(0)
	c := NewNet(n, spec, Params{
		Procs: 2, Owner: owner, Delay: 0,
		NetPolicy: func(m mnet.Message) (bool, int64) {
			if m.Kind != mnet.Boundary {
				return false, 0
			}
			return drop, extra
		},
	})
	c.Tick(0)
	c.Begin("t1", 1)
	c.Request("t1", 1, "x")
	c.Performed("t1", 1, "x", 2)
	if v := c.reps[0].view["t1"]; v == nil || v.bound[2] != 1 {
		t.Fatal("owner replica must learn its own boundary despite the drop")
	}
	if c.reps[1].view["t1"] != nil {
		t.Fatal("dropped announcement must not reach the remote replica")
	}
	if c.NetStats().Dropped == 0 {
		t.Fatal("policy drop not accounted")
	}

	// A delayed (not dropped) announcement matures after the extra
	// latency, even at Delay 0.
	drop, extra = false, 30
	c.Request("t1", 2, "x")
	c.Performed("t1", 2, "x", 2)
	if v := c.reps[1].view["t1"]; v != nil && v.bound[2] != 0 {
		t.Fatal("delayed announcement arrived instantly")
	}
	c.Tick(29)
	if v := c.reps[1].view["t1"]; v != nil && v.bound[2] != 0 {
		t.Fatal("announcement matured early")
	}
	c.Tick(30)
	if v := c.reps[1].view["t1"]; v == nil || v.bound[2] != 2 {
		t.Fatal("delayed announcement never matured")
	}
}

// TestNetFaultSoundness: with every kind of bus message randomly dropped
// and delayed by the seeded fault injector, the distributed preventer
// still admits only Theorem-2-correctable executions and preserves every
// banking invariant — message loss can cost waits and aborts, never
// correctness.
func TestNetFaultSoundness(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		p := bank.DefaultParams()
		p.Transfers = 14
		p.BankAudits = 1
		p.CreditorAudits = 2
		p.Seed = seed
		wl := bank.Generate(p)
		cfg := sim.DefaultConfig()
		inj := fault.New(fault.Plan{
			Seed:          seed,
			NetDropRate:   0.3,
			NetDelayRate:  0.3,
			NetExtraDelay: 40,
		})
		c := NewNet(wl.Nest, wl.Spec, Params{
			Procs:  sim.Processors,
			Owner:  sim.OwnerFunc(sim.Processors),
			Delay:  10,
			Faults: inj,
		})
		res, err := sim.Run(cfg, wl.Programs, c, wl.Spec, wl.Init)
		if err != nil {
			t.Fatalf("seed=%d: %v", seed, err)
		}
		if c.NetStats().Dropped == 0 {
			t.Errorf("seed=%d: a 30%% drop rate dropped nothing", seed)
		}
		inv := wl.Check(res.Exec, res.Final)
		if !inv.ConservationOK {
			t.Errorf("seed=%d: money not conserved under lossy messaging", seed)
		}
		if inv.AuditsInexact > 0 {
			t.Errorf("seed=%d: inexact audits", seed)
		}
		if inv.TraceValid != nil {
			t.Errorf("seed=%d: %v", seed, inv.TraceValid)
		}
		ok, err := coherent.Correctable(res.Exec, wl.Nest, wl.Spec)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Errorf("seed=%d: non-correctable execution admitted", seed)
		}
	}
}

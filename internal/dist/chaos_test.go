package dist

import (
	"fmt"
	"os"
	"reflect"
	"testing"

	"mla/internal/bank"
	"mla/internal/breakpoint"
	"mla/internal/coherent"
	"mla/internal/fault"
	"mla/internal/model"
	"mla/internal/nest"
	mnet "mla/internal/net"
	"mla/internal/sched"
	"mla/internal/sim"
)

// twoProcsXY owns x at processor 0 and everything else at processor 1.
func twoProcsXY(e model.EntityID) int {
	if e == "x" {
		return 0
	}
	return 1
}

// TestFinishRetransmitDropped is the regression for the old control's
// "finish announcements are never dropped" hack: here the first finish
// transmission IS dropped, a remote waiter blocks on the apparently
// unfinished transaction, and the retransmission daemon must recover —
// the waiter grants once the resent finish is acknowledged.
func TestFinishRetransmitDropped(t *testing.T) {
	n := nest.New(2)
	n.Add("t1")
	n.Add("t2") // level(t1,t2)=1: t2 needs t1 finished
	spec := breakpoint.Uniform{Levels: 2, C: 2}
	dropNext := true
	c := NewNet(n, spec, Params{
		Procs: 2, Owner: twoProcsXY, Delay: 5,
		NetPolicy: func(m mnet.Message) (bool, int64) {
			if m.Kind == mnet.Finish && dropNext {
				dropNext = false
				return true, 0
			}
			return false, 0
		},
	})
	c.Tick(0)
	c.Begin("t1", 1)
	c.Begin("t2", 2)
	if d := c.Request("t1", 1, "x"); d.Kind != sched.Grant {
		t.Fatal("t1 x")
	}
	c.Performed("t1", 1, "x", 2)
	if d := c.Request("t1", 2, "y"); d.Kind != sched.Grant {
		t.Fatal("t1 y")
	}
	c.Performed("t1", 2, "y", 0)
	c.Finished("t1") // origin = proc 1; the finish to proc 0 is dropped
	if dropNext {
		t.Fatal("the policy never saw a finish transmission")
	}
	if c.retiredAll["t1"] {
		t.Fatal("retired although the only finish transmission was dropped")
	}
	// Processor 0 never heard the finish: the waiter must block.
	if d := c.Request("t2", 1, "x"); d.Kind != sched.Wait {
		t.Fatalf("t2 on x: got %v, want Wait (finish lost)", d.Kind)
	}
	// Drive the clock: the daemon retransmits, the peer acks, t1 retires.
	for now := int64(1); now <= 200 && !c.retiredAll["t1"]; now++ {
		c.Tick(now)
	}
	if !c.retiredAll["t1"] {
		t.Fatal("retransmission never recovered the dropped finish")
	}
	if c.Retransmits == 0 {
		t.Error("recovery happened without a counted retransmission")
	}
	if d := c.Request("t2", 1, "x"); d.Kind != sched.Grant {
		t.Fatalf("t2 on x after recovery: %v", d.Kind)
	}
	if len(c.TakeVictims()) != 0 {
		t.Error("nothing should have been aborted")
	}
}

// TestPartitionStrandsThenGraceAborts: a never-healing partition separates
// a waiter from the processor its blocker is sited at. The failure
// detector suspects the unreachable side, and after the grace period the
// waiter is aborted rather than left hanging forever.
func TestPartitionStrandsThenGraceAborts(t *testing.T) {
	n := nest.New(2)
	n.Add("t1")
	n.Add("t2")
	spec := breakpoint.Uniform{Levels: 2, C: 2}
	inj := fault.New(fault.Plan{
		Partitions: []fault.Partition{{Name: "split", At: 10, Sides: [][]int{{0}, {1}}}},
	})
	c := NewNet(n, spec, Params{Procs: 2, Owner: twoProcsXY, Delay: 5, Faults: inj})
	c.Tick(0)
	c.Begin("t1", 1)
	c.Begin("t2", 2)
	if d := c.Request("t1", 1, "x"); d.Kind != sched.Grant {
		t.Fatal("t1 x")
	}
	c.Performed("t1", 1, "x", 2)
	if d := c.Request("t1", 2, "y"); d.Kind != sched.Grant {
		t.Fatal("t1 y")
	}
	c.Performed("t1", 2, "y", 2) // t1 now sited at processor 1
	c.Tick(10)                   // partition applies: {0} | {1}
	// t2 blocks at processor 0 on t1, which sits across the partition.
	if d := c.Request("t2", 1, "x"); d.Kind != sched.Wait {
		t.Fatalf("t2 on x: %v", d.Kind)
	}
	var victims []model.TxnID
	for now := int64(11); now <= 2000 && len(victims) == 0; now += 5 {
		c.Tick(now)
		victims = append(victims, c.TakeVictims()...)
	}
	if len(victims) != 1 || victims[0] != "t2" {
		t.Fatalf("victims = %v, want [t2] (the stranded waiter)", victims)
	}
	if c.GraceAborts == 0 {
		t.Error("grace abort not counted")
	}
	if !c.kit.Up(1) || !c.kit.Unreachable(0, 1) {
		t.Error("processor 0 never suspected its partitioned peer")
	}
	c.Aborted(victims)
}

// TestCrashedOwnerStrandsRequests: a request addressed to a crashed
// processor cannot even be decided there. It waits; if the processor
// rejoins within the grace period the re-offered request is decided
// normally, and the stranding leaves no residue.
func TestCrashedOwnerStrandsRequests(t *testing.T) {
	n := nest.New(2)
	n.Add("t1")
	spec := breakpoint.Uniform{Levels: 2, C: 2}
	inj := fault.New(fault.Plan{
		ProcCrashes: []fault.ProcCrash{{Proc: 0, At: 10, Rejoin: 60}},
	})
	c := NewNet(n, spec, Params{Procs: 2, Owner: twoProcsXY, Delay: 5, Faults: inj})
	c.Tick(0)
	c.Begin("t1", 1)
	c.Tick(10) // processor 0 crashes
	if d := c.Request("t1", 1, "x"); d.Kind != sched.Wait {
		t.Fatalf("request to a crashed processor: %v, want Wait", d.Kind)
	}
	if !c.kit.Stranded("t1") {
		t.Fatal("request not recorded as stranded")
	}
	c.Tick(60) // rejoin
	c.Tick(61)
	if d := c.Request("t1", 1, "x"); d.Kind != sched.Grant {
		t.Fatalf("re-offered request after rejoin: %v", d.Kind)
	}
	if c.kit.Stranded("t1") {
		t.Fatal("stranding record leaked past the rejoin")
	}
	if len(c.TakeVictims()) != 0 {
		t.Error("nothing should have been aborted within the grace period")
	}
}

// TestCrashAbortsResidentsAndResync: a processor crash loses its soft
// state and kills the unfinished transactions resident on it; on rejoin
// the replica's view table is empty and is rebuilt by anti-entropy resync
// from its peers.
func TestCrashAbortsResidentsAndResync(t *testing.T) {
	n := nest.New(2)
	n.Add("t0")
	n.Add("t1")
	n.Add("t2")
	spec := breakpoint.Uniform{Levels: 2, C: 2}
	inj := fault.New(fault.Plan{
		ProcCrashes: []fault.ProcCrash{{Proc: 1, At: 50, Rejoin: 100}},
	})
	c := NewNet(n, spec, Params{Procs: 2, Owner: twoProcsXY, Delay: 5, Faults: inj})
	c.Tick(0)
	c.Begin("t0", 1)
	c.Begin("t1", 2)
	// t0 steps on x at processor 0; its boundary reaches processor 1.
	if d := c.Request("t0", 1, "x"); d.Kind != sched.Grant {
		t.Fatal("t0 x")
	}
	c.Performed("t0", 1, "x", 2)
	// t1 is resident at processor 1.
	if d := c.Request("t1", 1, "y"); d.Kind != sched.Grant {
		t.Fatal("t1 y")
	}
	c.Performed("t1", 1, "y", 2)
	c.Tick(10)
	if v := c.reps[1].view["t0"]; v == nil || v.bound[2] != 1 {
		t.Fatal("t0's boundary never reached processor 1")
	}
	c.Tick(50) // crash: processor 1 loses everything
	victims := c.TakeVictims()
	if len(victims) != 1 || victims[0] != "t1" {
		t.Fatalf("victims = %v, want [t1] (resident on the crashed processor)", victims)
	}
	if c.CrashAborts == 0 {
		t.Error("crash abort not counted")
	}
	c.Aborted(victims)
	if c.reps[1].view["t0"] != nil {
		t.Fatal("crash must wipe the replica's soft state")
	}
	// Rejoin at 100: SyncRequest goes out, peers answer with snapshots.
	for now := int64(51); now <= 130; now++ {
		c.Tick(now)
	}
	if !c.reps[1].up {
		t.Fatal("processor 1 never rejoined")
	}
	if v := c.reps[1].view["t0"]; v == nil || v.bound[2] != 1 {
		t.Fatal("anti-entropy resync did not rebuild the view of t0")
	}
	// The rebuilt knowledge decides: t2 at processor 1 sees t0's boundary.
	c.Begin("t2", 3)
	if d := c.Request("t2", 1, "y"); d.Kind != sched.Grant {
		t.Fatalf("t2 on y after resync: %v", d.Kind)
	}
}

// chaosScenario is one cell of the E18-style failure grid.
type chaosScenario struct {
	name string
	plan fault.Plan
}

func chaosScenarios(deep bool) []chaosScenario {
	scenarios := []chaosScenario{
		{"loss", fault.Plan{Seed: 11, NetDropRate: 0.2, NetDelayRate: 0.2, NetExtraDelay: 30}},
		{"partition", fault.Plan{
			Partitions: []fault.Partition{{At: 100, Heal: 500}},
		}},
		{"crash", fault.Plan{
			ProcCrashes: []fault.ProcCrash{{Proc: 1, At: 120, Rejoin: 520}},
		}},
		{"everything", fault.Plan{
			Seed:        13,
			NetDropRate: 0.15,
			Partitions:  []fault.Partition{{At: 200, Heal: 600}},
			ProcCrashes: []fault.ProcCrash{{Proc: 2, At: 150, Rejoin: 550}},
		}},
	}
	if deep {
		for _, rate := range []float64{0.1, 0.3, 0.5} {
			for seed := int64(1); seed <= 4; seed++ {
				scenarios = append(scenarios, chaosScenario{
					fmt.Sprintf("deep-loss-%.1f-%d", rate, seed),
					fault.Plan{Seed: seed, NetDropRate: rate, NetDelayRate: rate, NetExtraDelay: 60},
				})
			}
		}
		for _, dur := range []int64{200, 600, 1200} {
			scenarios = append(scenarios, chaosScenario{
				fmt.Sprintf("deep-partition-%d", dur),
				fault.Plan{
					Seed:        17,
					NetDropRate: 0.1,
					Partitions:  []fault.Partition{{At: 100, Heal: 100 + dur}},
				},
			})
		}
		scenarios = append(scenarios, chaosScenario{
			"deep-double-crash",
			fault.Plan{
				Seed: 19,
				ProcCrashes: []fault.ProcCrash{
					{Proc: 1, At: 100, Rejoin: 600},
					{Proc: 3, At: 300, Rejoin: 800},
				},
			},
		})
	}
	return scenarios
}

// TestChaosSweepSoundness runs the full simulator workload under every
// chaos schedule and demands the acceptance bar of the failure-tolerance
// work: the run completes (no hang — stranded transactions abort within
// the grace period and are retried), every transaction eventually commits,
// the banking invariants hold, and the admitted execution is
// Theorem-2-correctable. MLA_CHAOS_DEEP=1 (the nightly CI job) expands the
// grid with heavier loss, longer partitions, and multiple crashes.
func TestChaosSweepSoundness(t *testing.T) {
	deep := os.Getenv("MLA_CHAOS_DEEP") != ""
	for _, sc := range chaosScenarios(deep) {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			p := bank.DefaultParams()
			p.Transfers = 14
			p.BankAudits = 1
			p.CreditorAudits = 2
			p.Seed = 5
			wl := bank.Generate(p)
			cfg := sim.DefaultConfig()
			c := NewNet(wl.Nest, wl.Spec, Params{
				Procs:  sim.Processors,
				Owner:  sim.OwnerFunc(sim.Processors),
				Delay:  5,
				Faults: fault.New(sc.plan),
			})
			res, err := sim.Run(cfg, wl.Programs, c, wl.Spec, wl.Init)
			if err != nil {
				t.Fatalf("run did not drain: %v", err)
			}
			if res.Stats.Committed != len(wl.Programs) {
				t.Fatalf("committed %d of %d transactions", res.Stats.Committed, len(wl.Programs))
			}
			inv := wl.Check(res.Exec, res.Final)
			if !inv.ConservationOK {
				t.Error("money not conserved under chaos")
			}
			if inv.AuditsInexact > 0 {
				t.Error("inexact audits under chaos")
			}
			if inv.TraceValid != nil {
				t.Errorf("trace invalid: %v", inv.TraceValid)
			}
			ok, err := coherent.Correctable(res.Exec, wl.Nest, wl.Spec)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Error("non-correctable execution admitted under chaos")
			}
			// Commits are final: every committed transaction's steps survive
			// in the trace exactly once (wl.Check validated the replay), and
			// the control never re-decided a finished transaction.
			if got := len(res.Exec.Txns()); got != len(wl.Programs) {
				t.Errorf("execution carries %d transactions, want %d", got, len(wl.Programs))
			}
		})
	}
}

// TestChaosReplayDeterministic: the control is a pure function of (seed,
// fault plan). Two runs of the "everything" plan must agree on the
// execution and on every counter — what an unsorted map iteration on a
// path that sends messages or queues aborts would break.
func TestChaosReplayDeterministic(t *testing.T) {
	type outcome struct {
		Exec    model.Execution
		Stats   sim.Stats
		Control sched.Stats
		Chaos   [5]int
		Net     mnet.Stats
	}
	run := func() outcome {
		p := bank.DefaultParams()
		p.Transfers = 40
		p.BankAudits = 2
		p.CreditorAudits = 3
		p.Seed = 5
		wl := bank.Generate(p)
		cfg := sim.DefaultConfig()
		c := NewNet(wl.Nest, wl.Spec, Params{
			Procs:  sim.Processors,
			Owner:  sim.OwnerFunc(sim.Processors),
			Delay:  5,
			Faults: fault.New(chaosScenarios(false)[3].plan),
		})
		res, err := sim.Run(cfg, wl.Programs, c, wl.Spec, wl.Init)
		if err != nil {
			t.Fatalf("run did not drain: %v", err)
		}
		return outcome{
			res.Exec, res.Stats, *res.Control,
			[5]int{c.StaleWaits, c.GraceAborts, c.CrashAborts, c.ProbeDeadlocks, c.Retransmits},
			c.NetStats(),
		}
	}
	a, b := run(), run()
	if a.Net.Dropped == 0 || a.Chaos[1]+a.Chaos[2] == 0 {
		t.Fatalf("the plan injected nothing worth replaying: %+v %+v", a.Chaos, a.Net)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed, same plan, different runs:\n%+v %+v %+v %+v\n%+v %+v %+v %+v",
			a.Stats, a.Control, a.Chaos, a.Net, b.Stats, b.Control, b.Chaos, b.Net)
	}
}

package shard

import (
	"context"
	"fmt"
	"os"
	"reflect"
	"sync"
	"testing"
	"time"

	"mla/internal/bank"
	"mla/internal/coherent"
	"mla/internal/engine"
	"mla/internal/fault"
	"mla/internal/history"
	"mla/internal/model"
	mnet "mla/internal/net"
	"mla/internal/sched"
	"mla/internal/sim"
	"mla/internal/wal"
)

// ---- Router ----

func TestRouterStableTotalAndDisjoint(t *testing.T) {
	r := NewRouter(4)
	if r.shards != 4 {
		t.Fatalf("shards = %d", r.shards)
	}
	init := make(map[model.EntityID]model.Value)
	for i := 0; i < 200; i++ {
		x := model.EntityID(fmt.Sprintf("e%d", i))
		init[x] = model.Value(i)
		s := r.Shard(x)
		if s < 0 || s >= 4 {
			t.Fatalf("Shard(%s) = %d out of range", x, s)
		}
		if again := r.Shard(x); again != s {
			t.Fatalf("Shard(%s) unstable: %d then %d", x, s, again)
		}
	}
	parts := r.Partition(init)
	total := 0
	for i, part := range parts {
		total += len(part)
		for x := range part {
			if r.Shard(x) != i {
				t.Fatalf("entity %s in slot %d but routed to %d", x, i, r.Shard(x))
			}
		}
	}
	if total != len(init) {
		t.Fatalf("partition lost entities: %d of %d", total, len(init))
	}
}

func TestRouterBalance(t *testing.T) {
	r := NewRouter(4)
	counts := make([]int, 4)
	const n = 4000
	for i := 0; i < n; i++ {
		counts[r.Shard(model.EntityID(fmt.Sprintf("acct-%d", i)))]++
	}
	for s, got := range counts {
		// Dense handles through the Mix finalizer should land near-uniform;
		// 15% of total is a generous floor for a quarter share.
		if got < n*15/100 {
			t.Errorf("shard %d got %d of %d entities — routing is skewed", s, got, n)
		}
	}
}

func TestRouterHome(t *testing.T) {
	r := NewRouter(4)
	a := entityOn(t, r, 0, "h")
	b := entityOn(t, r, 1, "h")
	if home, single := r.Home([]model.EntityID{a, a}); !single || home != 0 {
		t.Fatalf("Home same-shard: home=%d single=%v", home, single)
	}
	if _, single := r.Home([]model.EntityID{a, b}); single {
		t.Fatal("Home cross-shard reported single")
	}
	if home, single := r.Home(nil); !single || home != 0 {
		t.Fatalf("Home empty: home=%d single=%v", home, single)
	}
}

// entityOn finds an entity routed to the given shard, with a name prefix to
// keep tests independent of each other's interning order.
func entityOn(t *testing.T, r *Router, shard int, prefix string) model.EntityID {
	t.Helper()
	for i := 0; i < 10000; i++ {
		x := model.EntityID(fmt.Sprintf("%s%d", prefix, i))
		if r.Shard(x) == shard {
			return x
		}
	}
	t.Fatalf("no entity routed to shard %d in 10000 tries", shard)
	return ""
}

// ---- Group (concurrent partitioned store) ----

// groupWorkload submits commutative increments from many goroutines and
// checks decision equivalence the same way the bench gate does: the final
// store values must equal the increment counts, or a shot tore / a lock was
// not where the control thought it was. It sums every submission's Outcome
// and returns how many committed transactions crossed shards.
func groupWorkload(t *testing.T, g *Group, workers, txnsPer int, ents []model.EntityID) (crossShard int) {
	t.Helper()
	expect := make(map[model.EntityID]int64)
	committed, shots := 0, 0
	var mu sync.Mutex
	var wg sync.WaitGroup
	inc := func(v model.Value) (model.Value, string) { return v + 1, "inc" }
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := make(map[model.EntityID]int64)
			for i := 0; i < txnsPer; i++ {
				// Two units of two steps; entity choice cycles so many
				// transactions collide and cross shards.
				pick := func(k int) model.EntityID { return ents[(w*7+i*3+k)%len(ents)] }
				txn := Txn{
					ID: model.TxnID(fmt.Sprintf("w%d-t%d", w, i)),
					Units: []Unit{
						{Steps: []Step{{Entity: pick(0), Apply: inc}, {Entity: pick(1), Apply: inc}}},
						{Steps: []Step{{Entity: pick(2), Apply: inc}, {Entity: pick(3), Apply: inc}}},
					},
				}
				out, err := g.Submit(context.Background(), txn)
				if err != nil {
					t.Errorf("submit %s: %v", txn.ID, err)
					return
				}
				if !out.Committed || out.UnitsCommitted != 2 {
					t.Errorf("submit %s: %+v", txn.ID, out)
					return
				}
				mu.Lock()
				if out.Committed {
					committed++
				}
				shots += out.UnitsCommitted
				if out.CrossShard {
					crossShard++
				}
				mu.Unlock()
				for k := 0; k < 4; k++ {
					local[pick(k)]++
				}
			}
			mu.Lock()
			for x, n := range local {
				expect[x] += n
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	if t.Failed() {
		return crossShard
	}
	final := g.Values()
	for x, n := range expect {
		if final[x] != model.Value(n) {
			t.Errorf("entity %s: final %d, want %d increments", x, final[x], n)
		}
	}
	if committed != workers*txnsPer {
		t.Errorf("committed %d, want %d", committed, workers*txnsPer)
	}
	if shots != workers*txnsPer*2 {
		t.Errorf("shots %d, want %d", shots, workers*txnsPer*2)
	}
	return crossShard
}

func TestGroupConcurrentEquivalence(t *testing.T) {
	ents := make([]model.EntityID, 24)
	init := make(map[model.EntityID]model.Value)
	for i := range ents {
		ents[i] = model.EntityID(fmt.Sprintf("acct-%d", i))
		init[ents[i]] = 0
	}
	for _, shards := range []int{1, 2, 4} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			g := NewGroup(GroupConfig{Shards: shards}, init)
			if cross := groupWorkload(t, g, 8, 30, ents); shards > 1 && cross == 0 {
				t.Error("no cross-shard transaction exercised the multi-shot path")
			}
		})
	}
}

func TestGroupWALPipelinedShots(t *testing.T) {
	ents := make([]model.EntityID, 16)
	init := make(map[model.EntityID]model.Value)
	for i := range ents {
		ents[i] = model.EntityID(fmt.Sprintf("acct-%d", i))
		init[ents[i]] = 0
	}
	var pmu sync.Mutex
	var pipes []*wal.Pipeline
	g := NewGroup(GroupConfig{
		Shards: 4,
		NewStore: func(i int, part map[model.EntityID]model.Value) engine.Store {
			db, err := wal.Open(wal.NewMedium(), part)
			if err != nil {
				t.Fatalf("shard %d wal: %v", i, err)
			}
			pipe := wal.NewPipeline(db, 200*time.Microsecond)
			pmu.Lock()
			pipes = append(pipes, pipe)
			pmu.Unlock()
			return engine.NewPipelinedWALStore(pipe)
		},
	}, init)
	cross := groupWorkload(t, g, 6, 20, ents)
	for _, p := range pipes {
		p.Close()
	}
	if cross == 0 {
		t.Error("no cross-shard transaction exercised per-shard WAL voting")
	}
}

// TestGroupCancelledSubmitLeavesCommittedShots runs on WAL-backed shards,
// whose Abort undoes by sequence number (records with Seq > 0): the torn
// unit is cancelled after its first step performed, so a first step logged
// at seq 0 would survive the rollback.
func TestGroupCancelledSubmitLeavesCommittedShots(t *testing.T) {
	init := map[model.EntityID]model.Value{"a": 0, "b": 0, "c": 0}
	var dbs []*wal.DB
	var pipes []*wal.Pipeline
	g := NewGroup(GroupConfig{
		Shards: 2,
		NewStore: func(i int, part map[model.EntityID]model.Value) engine.Store {
			db, err := wal.Open(wal.NewMedium(), part)
			if err != nil {
				t.Fatalf("shard %d wal: %v", i, err)
			}
			pipe := wal.NewPipeline(db, 0)
			dbs, pipes = append(dbs, db), append(pipes, pipe)
			return engine.NewPipelinedWALStore(pipe)
		},
	}, init)
	inc := func(v model.Value) (model.Value, string) { return v + 1, "inc" }
	ctx, cancel := context.WithCancel(context.Background())
	// Hold b's lock before the submission starts so its second unit must
	// block. Priority 0 is oldest: the victim cannot wound it.
	n := g.nodes[g.router.Shard("b")]
	n.ctl.Begin("hold", 0)
	if d := n.ctl.Request("hold", 0, "b"); d.Kind != sched.Grant {
		t.Fatalf("hold acquire: %v", d.Kind)
	}
	victim := Txn{ID: "victim", Units: []Unit{
		{Steps: []Step{{Entity: "a", Apply: inc}}},
		{Steps: []Step{{Entity: "c", Apply: inc}, {Entity: "b", Apply: inc}}},
	}}
	done := make(chan Outcome, 1)
	go func() {
		out, _ := g.Submit(ctx, victim)
		done <- out
	}()
	// Let unit 1 commit and unit 2 perform c, then block on b.
	time.Sleep(20 * time.Millisecond)
	cancel()
	out := <-done
	n.ctl.Finished("hold")
	n.bump()
	if out.Committed {
		t.Fatal("cancelled submission reported fully committed")
	}
	if out.UnitsCommitted != 1 {
		t.Fatalf("UnitsCommitted = %d, want 1 (the torn prefix)", out.UnitsCommitted)
	}
	// Committed shots are irrevocable: unit 1's increment survives.
	if v := g.Values()["a"]; v != 1 {
		t.Fatalf("a = %d, want 1 (committed shot)", v)
	}
	// The aborted unit leaves nothing: neither the step it performed before
	// blocking nor the one it never reached, and no live log records.
	for _, x := range []model.EntityID{"c", "b"} {
		if v := g.Values()[x]; v != 0 {
			t.Fatalf("%s = %d, want 0 (aborted unit)", x, v)
		}
	}
	// The shards stay serviceable after the torn submission.
	blocker := Txn{ID: "after", Units: []Unit{{Steps: []Step{{Entity: "b", Apply: inc}}}}}
	if out, err := g.Submit(context.Background(), blocker); err != nil || !out.Committed {
		t.Fatalf("post-cancel submit: %+v, %v", out, err)
	}
	// Read the logs once their flushers have stopped. The committed "after"
	// retired its own records, so anything live is the rollback's residue.
	for _, p := range pipes {
		p.Close()
	}
	for i, db := range dbs {
		if live := db.Live(); live != 0 {
			t.Errorf("shard %d: %d transactions with live updates after the rollback", i, live)
		}
	}
}

// ---- SimControl protocol ----

// twoShardEntities picks one entity homed at each of two shards.
func twoShardEntities(t *testing.T, c *SimControl) (a, b model.EntityID) {
	t.Helper()
	return entityOn(t, c.router, 0, "p"), entityOn(t, c.router, 1, "p")
}

// TestCrossShardDeadlockResolvedByProbes builds the canonical two-shard
// deadlock: two transactions lock one entity each at different shards, then
// request each other's in the opposite order. No single shard sees both
// waits-for edges, so only the edge-chasing probes can close the cycle.
func TestCrossShardDeadlockResolvedByProbes(t *testing.T) {
	c := NewSimControl(SimParams{Shards: 2, Delay: 2})
	a, b := twoShardEntities(t, c)
	c.Tick(0)
	c.Begin("t1", 1)
	c.Begin("t2", 2)
	if d := c.Request("t1", 1, a); d.Kind != sched.Grant {
		t.Fatalf("t1 %s: %v", a, d.Kind)
	}
	c.Performed("t1", 1, a, 0)
	if d := c.Request("t2", 1, b); d.Kind != sched.Grant {
		t.Fatalf("t2 %s: %v", b, d.Kind)
	}
	c.Performed("t2", 1, b, 0)
	// Opposite-order second locks: both go remote, both block.
	if d := c.Request("t1", 2, b); d.Kind == sched.Grant {
		t.Fatal("t1's cross-shard request granted instantly")
	}
	if d := c.Request("t2", 2, a); d.Kind == sched.Grant {
		t.Fatal("t2's cross-shard request granted instantly")
	}
	var victims []model.TxnID
	for now := int64(1); now <= 2000 && len(victims) == 0; now++ {
		c.Tick(now)
		c.Request("t1", 2, b)
		c.Request("t2", 2, a)
		victims = append(victims, c.TakeVictims()...)
	}
	if len(victims) != 1 || victims[0] != "t2" {
		t.Fatalf("victims = %v, want [t2] (the youngest in the cycle)", victims)
	}
	if c.ProbeDeadlocks == 0 {
		t.Error("deadlock resolved but no probe detection counted")
	}
	c.Aborted(victims)
	// The survivor's blocked request completes once the victim's locks free.
	granted := false
	for now := int64(2001); now <= 2200 && !granted; now++ {
		c.Tick(now)
		if d := c.Request("t1", 2, b); d.Kind == sched.Grant {
			granted = true
		}
	}
	if !granted {
		t.Fatal("survivor never acquired the freed lock")
	}
}

// TestTornMultiShotCoordinatorCrash commits one cross-shard shot, then
// crashes the coordinator between shots. The committed shot is irrevocable
// at the participant; the transaction itself is lost with its coordinator
// and every lock it still held is accounted for — the torn state the
// recovery rules define, with full rollback of the open unit.
func TestTornMultiShotCoordinatorCrash(t *testing.T) {
	inj := fault.New(fault.Plan{
		ProcCrashes: []fault.ProcCrash{{Proc: 0, At: 500}},
	})
	c := NewSimControl(SimParams{Shards: 2, Delay: 2, Faults: inj})
	a, b := twoShardEntities(t, c)
	a2 := entityOn(t, c.router, 0, "q")
	c.Tick(0)
	c.Begin("t1", 1)
	if d := c.Request("t1", 1, a); d.Kind != sched.Grant {
		t.Fatalf("t1 %s: %v", a, d.Kind)
	}
	c.Performed("t1", 1, a, 0)
	// Cross-shard step: wait out the lock-request round trip.
	granted := false
	for now := int64(1); now <= 100 && !granted; now++ {
		c.Tick(now)
		if d := c.Request("t1", 2, b); d.Kind == sched.Grant {
			granted = true
		}
	}
	if !granted {
		t.Fatal("remote lock never granted")
	}
	c.Performed("t1", 2, b, 2) // coarseness-2 breakpoint: shot round opens
	if c.pendingShot["t1"] == nil {
		t.Fatal("cross-shard unit did not open a shot round")
	}
	// Drive the vote round home: shot 1 commits.
	for now := int64(101); now <= 200 && c.pendingShot["t1"] != nil; now++ {
		c.Tick(now)
	}
	if c.Shots != 1 {
		t.Fatalf("Shots = %d, want 1 (the committed shot)", c.Shots)
	}
	if c.nodes[1].locks.Snapshot().Locked != 0 {
		t.Fatal("participant kept the committed shot's locks")
	}
	// Unit 2 opens at the coordinator...
	if d := c.Request("t1", 3, a2); d.Kind != sched.Grant {
		t.Fatalf("t1 %s: %v", a2, d.Kind)
	}
	c.Performed("t1", 3, a2, 0)
	// ...and the coordinator dies between shots.
	c.Tick(500)
	victims := c.TakeVictims()
	if len(victims) != 1 || victims[0] != "t1" {
		t.Fatalf("victims = %v, want [t1] (lost with its coordinator)", victims)
	}
	if c.CrashAborts != 1 {
		t.Errorf("CrashAborts = %d, want 1", c.CrashAborts)
	}
	c.Aborted(victims)
	if c.nodes[1].locks.Snapshot().Locked != 0 {
		t.Error("abort leaked locks at the surviving participant")
	}
}

// TestLockResyncAfterParticipantCrash: a participant crash wipes its lock
// table while a foreign coordinator still claims a grant there. On rejoin,
// anti-entropy re-installs the claim before the shard grants anything
// conflicting.
func TestLockResyncAfterParticipantCrash(t *testing.T) {
	inj := fault.New(fault.Plan{
		ProcCrashes: []fault.ProcCrash{{Proc: 1, At: 300, Rejoin: 400}},
	})
	c := NewSimControl(SimParams{Shards: 2, Delay: 2, Faults: inj})
	a, b := twoShardEntities(t, c)
	c.Tick(0)
	c.Begin("t1", 1)
	if d := c.Request("t1", 1, a); d.Kind != sched.Grant {
		t.Fatalf("t1 %s: %v", a, d.Kind)
	}
	c.Performed("t1", 1, a, 0)
	granted := false
	for now := int64(1); now <= 100 && !granted; now++ {
		c.Tick(now)
		if d := c.Request("t1", 2, b); d.Kind == sched.Grant {
			granted = true
		}
	}
	if !granted {
		t.Fatal("remote lock never granted")
	}
	c.Performed("t1", 2, b, 0)
	c.Tick(300) // shard 1 crashes: its lock table is gone
	if v := c.TakeVictims(); len(v) != 0 {
		t.Fatalf("participant crash aborted %v; only coordinator crashes kill", v)
	}
	// Rejoin and resync; then a rival wants b.
	for now := int64(301); now <= 500; now++ {
		c.Tick(now)
	}
	if !c.nodes[1].up || c.nodes[1].recovering {
		t.Fatal("shard 1 never finished recovering")
	}
	if c.nodes[1].locks.HolderOf(b) != "t1" {
		t.Fatal("anti-entropy did not re-install the surviving claim")
	}
	c.Begin("t2", 2)
	stolen := false
	for now := int64(501); now <= 600; now++ {
		c.Tick(now)
		if d := c.Request("t2", 1, b); d.Kind == sched.Grant {
			stolen = true
			break
		}
	}
	if stolen {
		t.Fatal("rival acquired a lock the resynced claim should hold")
	}
	// The claim holder finishing releases it; the rival then gets through.
	c.Finished("t1")
	acquired := false
	for now := int64(601); now <= 800 && !acquired; now++ {
		c.Tick(now)
		if d := c.Request("t2", 1, b); d.Kind == sched.Grant {
			acquired = true
		}
	}
	if !acquired {
		t.Fatal("release after resync never reached the rival")
	}
}

// ---- full-simulator soundness under chaos ----

type shardChaos struct {
	name string
	plan fault.Plan
}

func shardChaosGrid(deep bool) []shardChaos {
	grid := []shardChaos{
		{"clean", fault.Plan{}},
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
		for _, rate := range []float64{0.1, 0.3} {
			for seed := int64(1); seed <= 3; seed++ {
				grid = append(grid, shardChaos{
					fmt.Sprintf("deep-loss-%.1f-%d", rate, seed),
					fault.Plan{Seed: seed, NetDropRate: rate, NetDelayRate: rate, NetExtraDelay: 60},
				})
			}
		}
		grid = append(grid, shardChaos{
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
	return grid
}

// TestShardClosureGateBlocksAudits pins the soundness fix for the shot
// protocol's early release: without the closure gate, the locks a transfer
// drops at its level-2 withdraw/deposit boundary were free for anyone —
// including a bank audit, which relates to transfers at level 1 and must
// see them atomically. Seed 3 at mlasim's default workload size reproduced
// an inexact audit and a non-correctable execution.
func TestShardClosureGateBlocksAudits(t *testing.T) {
	p := bank.DefaultParams()
	p.Seed = 3
	wl := bank.Generate(p)
	c := NewSimControl(SimParams{Shards: 4, Delay: 2, Nest: wl.Nest})
	res, err := sim.Run(sim.DefaultConfig(), wl.Programs, c, wl.Spec, wl.Init)
	if err != nil {
		t.Fatalf("run did not drain: %v", err)
	}
	inv := wl.Check(res.Exec, res.Final)
	if inv.AuditsInexact > 0 {
		t.Errorf("%d inexact audits: the closure gate let an audit between a transfer's shots", inv.AuditsInexact)
	}
	ok, err := coherent.Correctable(res.Exec, wl.Nest, wl.Spec)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("non-correctable execution admitted with the closure gate in place")
	}
}

// TestShardChaosSweepSoundness runs the full banking workload on the
// sharded control under the E18-style failure grid: the run must drain,
// every transaction commits, the banking invariants hold, the execution is
// Theorem-2-correctable, and the black-box history checker accepts the
// sharded history unchanged. MLA_CHAOS_DEEP=1 (nightly) widens the grid.
func TestShardChaosSweepSoundness(t *testing.T) {
	deep := os.Getenv("MLA_CHAOS_DEEP") != ""
	for _, sc := range shardChaosGrid(deep) {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			p := bank.DefaultParams()
			p.Transfers = 14
			p.BankAudits = 1
			p.CreditorAudits = 2
			p.Seed = 5
			wl := bank.Generate(p)
			cfg := sim.DefaultConfig()
			c := NewSimControl(SimParams{
				Shards: 4,
				Delay:  5,
				Faults: fault.New(sc.plan),
				Nest:   wl.Nest,
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
				t.Error("money not conserved under sharded chaos")
			}
			if inv.AuditsInexact > 0 {
				t.Error("inexact audits under sharded chaos")
			}
			if inv.TraceValid != nil {
				t.Errorf("trace invalid: %v", inv.TraceValid)
			}
			ok, err := coherent.Correctable(res.Exec, wl.Nest, wl.Spec)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Error("non-correctable execution admitted by the sharded control")
			}
			// The black-box checker must accept sharded histories unchanged.
			h, err := history.FromExecution(res.Exec, wl.Nest.Restrict(res.Exec.Txns()), wl.Spec)
			if err != nil {
				t.Fatalf("history: %v", err)
			}
			rep, err := history.Check(h)
			if err != nil {
				t.Fatalf("check: %v", err)
			}
			if !rep.Correctable {
				t.Errorf("history checker rejected a sharded history: %s", rep.Summary())
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
		Chaos   [6]int
		Net     mnet.Stats
	}
	run := func() outcome {
		p := bank.DefaultParams()
		p.Transfers = 40
		p.BankAudits = 2
		p.CreditorAudits = 3
		p.Seed = 5
		wl := bank.Generate(p)
		c := NewSimControl(SimParams{
			Shards: 4,
			Delay:  5,
			Faults: fault.New(shardChaosGrid(false)[4].plan),
			Nest:   wl.Nest,
		})
		res, err := sim.Run(sim.DefaultConfig(), wl.Programs, c, wl.Spec, wl.Init)
		if err != nil {
			t.Fatalf("run did not drain: %v", err)
		}
		return outcome{
			res.Exec, res.Stats, *res.Control,
			[6]int{c.Shots, c.CrossShard, c.GraceAborts, c.CrashAborts, c.ProbeDeadlocks, c.Retransmits},
			c.NetStats(),
		}
	}
	a, b := run(), run()
	if a.Net.Dropped == 0 || a.Chaos[2]+a.Chaos[3] == 0 {
		t.Fatalf("the plan injected nothing worth replaying: %+v %+v", a.Chaos, a.Net)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed, same plan, different runs:\n%+v %+v %+v %+v\n%+v %+v %+v %+v",
			a.Stats, a.Control, a.Chaos, a.Net, b.Stats, b.Control, b.Chaos, b.Net)
	}
}

// Values merges the per-shard stores into one state. Entities are routed
// to exactly one shard, so the merge is a disjoint union.
func (g *Group) Values() map[model.EntityID]model.Value {
	out := make(map[model.EntityID]model.Value)
	for _, n := range g.nodes {
		n.mu.Lock()
		vals := n.store.Values()
		n.mu.Unlock()
		for x, v := range vals {
			out[x] = v
		}
	}
	return out
}

// Home returns the home shard of a whole entity set and whether the set is
// single-shard: single-shard transactions execute entirely at their home
// shard with no cross-shard protocol at all.
func (r *Router) Home(ents []model.EntityID) (home int, single bool) {
	if len(ents) == 0 {
		return 0, true
	}
	home = r.Shard(ents[0])
	for _, x := range ents[1:] {
		if r.Shard(x) != home {
			return home, false
		}
	}
	return home, true
}

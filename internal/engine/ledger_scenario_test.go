package engine

import (
	"context"
	"reflect"
	"testing"

	"mla/internal/model"
	"mla/internal/sched"
	"mla/internal/sim"
)

// scriptAct is one entry of a scriptControl's schedule: grant txn its seq-th
// step, (seq 0) answer txn's next request by naming it the victim, or (seq
// done) hold the rest of the script until txn has finished.
type scriptAct struct {
	txn model.TxnID
	seq int
}

const done = -1

// scriptControl admits steps in exactly the scripted order — every other
// request waits — and records each victim set a host reports back.
type scriptControl struct {
	script   []scriptAct
	finished map[model.TxnID]bool // since the transaction's last rollback
	aborted  [][]model.TxnID
	stats    sched.Stats
}

func (c *scriptControl) Name() string                                    { return "script" }
func (c *scriptControl) Begin(model.TxnID, int64)                        {}
func (c *scriptControl) Performed(model.TxnID, int, model.EntityID, int) {}
func (c *scriptControl) Finished(t model.TxnID)                          { c.finished[t] = true }
func (c *scriptControl) Stats() *sched.Stats                             { return &c.stats }

func (c *scriptControl) Request(t model.TxnID, seq int, _ model.EntityID) sched.Decision {
	for len(c.script) > 0 && c.script[0].seq == done && c.finished[c.script[0].txn] {
		c.script = c.script[1:]
	}
	if len(c.script) == 0 || c.script[0].txn != t {
		return sched.Decision{Kind: sched.Wait}
	}
	switch c.script[0].seq {
	case 0:
		c.script = c.script[1:]
		return sched.Decision{Kind: sched.Abort, Victims: []model.TxnID{t}}
	case seq:
		c.script = c.script[1:]
		return sched.Decision{Kind: sched.Grant}
	}
	return sched.Decision{Kind: sched.Wait}
}

func (c *scriptControl) Aborted(victims []model.TxnID) {
	c.aborted = append(c.aborted, append([]model.TxnID(nil), victims...))
	for _, t := range victims {
		delete(c.finished, t)
	}
}

// TestLedgerScenarioOnBothHosts drives one scripted history through the
// simulator and through the engine and expects the recovery ledger to give
// both the same answers: t1 writes x; t2 reads x and writes y; t3 reads y;
// wounding t1 must take exactly {t1,t2,t3} (t2 and t3 had already finished).
// On the rerun t1 and t4 read each other's writes, so they can only commit
// together — one group of two — after which t2 and t3 commit alone. A group
// takes every finished transaction whose dependencies it covers, so the
// script pins each finish the groups depend on: on the engine a granted
// transaction reaches its Finish concurrently with the next grant.
func TestLedgerScenarioOnBothHosts(t *testing.T) {
	programs := []model.Program{
		&model.Scripted{Txn: "t1", Ops: []model.Op{model.Write("x", 1), model.Read("z")}},
		&model.Scripted{Txn: "t2", Ops: []model.Op{model.Read("x"), model.Write("y", 1)}},
		&model.Scripted{Txn: "t3", Ops: []model.Op{model.Read("y")}},
		&model.Scripted{Txn: "t4", Ops: []model.Op{model.Write("z", 1), model.Read("x")}},
	}
	script := func() *scriptControl {
		return &scriptControl{finished: map[model.TxnID]bool{}, script: []scriptAct{
			{"t1", 1}, {"t2", 1}, {"t2", 2}, {"t3", 1}, {"t2", done}, {"t3", done},
			{"t1", 0}, // wound t1 as it asks for its second step
			{"t1", 1}, {"t4", 1}, {"t1", 2}, {"t4", 2}, {"t1", done}, {"t4", done},
			{"t2", 1}, {"t2", 2}, {"t2", done}, {"t3", 1},
		}}
	}
	wantCascade := [][]model.TxnID{{"t1", "t2", "t3"}}
	wantGroups := []int{2, 1, 1}
	init := map[model.EntityID]model.Value{}

	c := script()
	sres, err := sim.Run(sim.DefaultConfig(), programs, c, nil, init)
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	if !reflect.DeepEqual(c.aborted, wantCascade) || !reflect.DeepEqual(sres.CommitGroups, wantGroups) {
		t.Errorf("sim: rolled back %v, commit groups %v; want %v, %v", c.aborted, sres.CommitGroups, wantCascade, wantGroups)
	}
	if sres.Stats.Cascades != 2 {
		t.Errorf("sim: %d cascades, want 2", sres.Stats.Cascades)
	}

	c = script()
	eres, err := Run(context.Background(), Config{}, programs, c, nil, init)
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	if !reflect.DeepEqual(c.aborted, wantCascade) || !reflect.DeepEqual(eres.CommitGroups, wantGroups) {
		t.Errorf("engine: rolled back %v, commit groups %v; want %v, %v", c.aborted, eres.CommitGroups, wantCascade, wantGroups)
	}
	if eres.Cascades != 2 {
		t.Errorf("engine: %d cascades, want 2", eres.Cascades)
	}
}

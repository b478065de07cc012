package lock

import (
	"testing"

	"mla/internal/model"
)

func prios(m map[model.TxnID]int64) func(model.TxnID) int64 {
	return func(t model.TxnID) int64 { return m[t] }
}

func TestAcquireGrantAndReentry(t *testing.T) {
	m := NewStriped(1)
	p := prios(map[model.TxnID]int64{"t1": 1, "t2": 2})
	if out, _ := m.Acquire("t1", "x", p); out != Granted {
		t.Fatal("free lock must grant")
	}
	if out, _ := m.Acquire("t1", "x", p); out != Granted {
		t.Fatal("re-acquire by holder must grant")
	}
	if m.HolderOf("x") != "t1" {
		t.Error("HolderOf must report the holder")
	}
}

func TestWoundWaitPolicy(t *testing.T) {
	m := NewStriped(1)
	p := prios(map[model.TxnID]int64{"old": 1, "young": 9})
	m.Acquire("young", "x", p)
	// Older requester wounds the younger holder.
	out, victim := m.Acquire("old", "x", p)
	if out != Wound || victim != "young" {
		t.Fatalf("out=%v victim=%v", out, victim)
	}
	// Younger requester waits for the older holder.
	m2 := NewStriped(1)
	m2.Acquire("old", "x", p)
	out, _ = m2.Acquire("young", "x", p)
	if out != Wait {
		t.Fatalf("young vs old: out=%v", out)
	}
}

func TestReleaseFreesAll(t *testing.T) {
	m := NewStriped(1)
	p := prios(map[model.TxnID]int64{"t1": 1, "t2": 2})
	m.Acquire("t1", "x", p)
	m.Acquire("t1", "y", p)
	if m.Snapshot().Locked != 2 {
		t.Fatalf("locked = %d", m.Snapshot().Locked)
	}
	m.Release("t1")
	if m.Snapshot().Locked != 0 {
		t.Fatalf("locked after release = %d", m.Snapshot().Locked)
	}
	if out, _ := m.Acquire("t2", "x", p); out != Granted {
		t.Error("released lock must be acquirable")
	}
}

func TestReleaseUnknownIsNoop(t *testing.T) {
	m := NewStriped(1)
	m.Release("ghost") // must not panic
	if m.Snapshot().Locked != 0 {
		t.Error("phantom locks appeared")
	}
}

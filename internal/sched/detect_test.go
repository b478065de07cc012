package sched

import (
	"fmt"
	"testing"

	"mla/internal/breakpoint"
	"mla/internal/model"
	"mla/internal/nest"
)

// cycleRound plays one Detector cycle on a fresh pair: a on x, b on x (a
// precedes b, and b is pinned behind a's open segment), b on y, then a on y,
// which would follow b and closes the cycle. It returns the decision on
// a's second step; b, the younger, is the victim and a closure sink, since
// no step follows any of b's.
func cycleRound(t testing.TB, d *Detector, a, b model.TxnID, prio int64) Decision {
	d.Begin(a, prio)
	d.Begin(b, prio+1)
	for _, s := range []struct {
		txn model.TxnID
		seq int
		x   model.EntityID
	}{{a, 1, "x"}, {b, 1, "x"}, {b, 2, "y"}} {
		if dec := d.Request(s.txn, s.seq, s.x); dec.Kind != Grant {
			t.Fatalf("%s[%d] on %s: %v", s.txn, s.seq, s.x, dec.Kind)
		}
		d.Performed(s.txn, s.seq, s.x, 2)
	}
	return d.Request(a, 2, "y")
}

// TestDetectorSinkVictimRetractsInPlace: a rejected step leaves nothing
// behind in the closure, so a cycle's victim that is a closure sink leaves
// by retraction in place, like any other sink victim, not by a replay.
func TestDetectorSinkVictimRetractsInPlace(t *testing.T) {
	n := nest.New(2)
	for _, id := range []model.TxnID{"t0", "t1", "t2"} {
		n.Add(id)
	}
	d := NewDetector(n, breakpoint.Uniform{Levels: 2, C: 2})
	d.Begin("t0", 0)
	if dec := d.Request("t0", 1, "z"); dec.Kind != Grant { // an unrelated live step
		t.Fatalf("t0 on z: %v", dec.Kind)
	}
	d.Performed("t0", 1, "z", 2)
	dec := cycleRound(t, d, "t1", "t2", 1)
	if dec.Kind != Abort || len(dec.Victims) != 1 || dec.Victims[0] != "t2" {
		t.Fatalf("t1 on y: %v %v, want an abort of t2", dec.Kind, dec.Victims)
	}
	if got := d.ClosureSteps(); got != 4 {
		t.Fatalf("after the rejection the closure holds %d steps, want 4", got)
	}
	before := d.oc.Retractions()
	d.Aborted(dec.Victims)
	if got := d.oc.Retractions(); got != before+1 {
		t.Fatalf("retractions %d → %d: the sink victim was not retracted in place", before, got)
	}
	if got := d.ClosureSteps(); got != 2 {
		t.Fatalf("after the abort the closure holds %d steps, want t0's and t1's", got)
	}
	if dec := d.Request("t1", 2, "y"); dec.Kind != Grant {
		t.Fatalf("t1 on y after the abort: %v", dec.Kind)
	}
}

// BenchmarkDetectorCascade measures a Detector abort whose victim is a
// closure sink, next to a backlog of live transactions the abort must not
// disturb: each round plays cycleRound, aborts the victim, and lets the
// survivor finish, commit and seal. It reports ns/abort and
// retractions/abort; a victim retracted in place reads 1 retraction per
// abort, a victim that costs a replay of the closure 0.
func BenchmarkDetectorCascade(b *testing.B) {
	const backlog = 256
	n := nest.New(2)
	n.Add("a")
	n.Add("b")
	d := NewDetector(n, breakpoint.Uniform{Levels: 2, C: 2})
	for i := 0; i < backlog; i++ {
		id := model.TxnID(fmt.Sprintf("bg%d", i))
		n.Add(id)
		d.Begin(id, int64(-backlog+i))
		if dec := d.Request(id, 1, "bg"); dec.Kind != Grant {
			b.Fatalf("backlog step %d: %v", i, dec.Kind)
		}
		d.Performed(id, 1, "bg", 2)
	}
	before := d.oc.Retractions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dec := cycleRound(b, d, "a", "b", int64(2*i))
		if dec.Kind != Abort {
			b.Fatalf("round %d: a on y: %v, want an abort", i, dec.Kind)
		}
		d.Aborted(dec.Victims)
		if dec := d.Request("a", 2, "y"); dec.Kind != Grant {
			b.Fatalf("round %d: a on y after the abort: %v", i, dec.Kind)
		}
		d.Performed("a", 2, "y", 2)
		d.Finished("a")
		d.Retired("a")
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/abort")
	b.ReportMetric(float64(d.oc.Retractions()-before)/float64(b.N), "retractions/abort")
	if d.ClosureSteps() != backlog {
		b.Fatalf("%d live steps after the rounds, want the backlog's %d", d.ClosureSteps(), backlog)
	}
}

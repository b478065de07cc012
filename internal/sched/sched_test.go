package sched

import (
	"testing"

	"mla/internal/breakpoint"
	"mla/internal/model"
	"mla/internal/nest"
)

func TestNoneGrantsEverything(t *testing.T) {
	c := NewNone()
	c.Begin("t1", 1)
	c.Begin("t2", 2)
	for i := 0; i < 5; i++ {
		if d := c.Request("t1", i+1, "x"); d.Kind != Grant {
			t.Fatalf("None denied a request: %v", d)
		}
		if d := c.Request("t2", i+1, "x"); d.Kind != Grant {
			t.Fatalf("None denied a request: %v", d)
		}
	}
	if c.Stats().Grants != 10 {
		t.Errorf("grants = %d", c.Stats().Grants)
	}
}

func TestSerialOneAtATime(t *testing.T) {
	c := NewSerial()
	c.Begin("t1", 1)
	c.Begin("t2", 2)
	if d := c.Request("t1", 1, "x"); d.Kind != Grant {
		t.Fatal("first requester must get the token")
	}
	if d := c.Request("t2", 1, "y"); d.Kind != Wait {
		t.Fatal("second transaction must wait even on a different entity")
	}
	if d := c.Request("t1", 2, "y"); d.Kind != Grant {
		t.Fatal("holder continues")
	}
	c.Finished("t1")
	if d := c.Request("t2", 1, "y"); d.Kind != Grant {
		t.Fatal("token must pass on finish")
	}
	c.Aborted([]model.TxnID{"t2"})
	c.Begin("t3", 3)
	if d := c.Request("t3", 1, "x"); d.Kind != Grant {
		t.Fatal("token must pass on abort")
	}
}

func TestTwoPhaseLockingAndDeadlock(t *testing.T) {
	c := NewTwoPhase()
	c.Begin("old", 1)
	c.Begin("young", 9)
	if d := c.Request("young", 1, "x"); d.Kind != Grant {
		t.Fatal("free lock")
	}
	// A conflicting request waits — no eager wounding.
	if d := c.Request("old", 1, "x"); d.Kind != Wait {
		t.Fatalf("conflicting request should wait, got %v", d.Kind)
	}
	// young takes y, then old... build the classic deadlock: old holds y?
	// Reset scenario: old acquires y, young requests y → old→x? Create the
	// cycle: young holds x and requests y; old holds y and requests x.
	if d := c.Request("old", 1, "y"); d.Kind != Grant {
		t.Fatal("old should lock y")
	}
	if d := c.Request("young", 2, "y"); d.Kind != Wait {
		t.Fatal("young waits on y")
	}
	// old requesting x closes the cycle: the youngest member dies.
	d := c.Request("old", 2, "x")
	if d.Kind != Abort || len(d.Victims) != 1 || d.Victims[0] != "young" {
		t.Fatalf("decision = %+v", d)
	}
	c.Aborted(d.Victims)
	if d := c.Request("old", 2, "x"); d.Kind != Grant {
		t.Fatal("lock must be free after the victim's rollback")
	}
	c.Finished("old")
	c.Begin("young2", 20)
	if d := c.Request("young2", 1, "x"); d.Kind != Grant {
		t.Fatal("lock must be free after finish")
	}
	if c.Stats().Wounds != 1 {
		t.Errorf("wounds = %d", c.Stats().Wounds)
	}
}

func TestTimestampOrdering(t *testing.T) {
	c := NewTimestamp()
	c.Begin("t1", 5)
	c.Begin("t2", 9)
	if d := c.Request("t2", 1, "x"); d.Kind != Grant {
		t.Fatal("first access grants")
	}
	c.Performed("t2", 1, "x", 0)
	// Older t1 now arrives at x: too late.
	d := c.Request("t1", 1, "x")
	if d.Kind != Abort || d.Victims[0] != "t1" {
		t.Fatalf("decision = %+v", d)
	}
	// Restart with a fresh (larger) timestamp succeeds.
	if got := c.NewPriority("t1", 5, 100); got != 100 {
		t.Errorf("NewPriority = %d", got)
	}
	c.Begin("t1", 100)
	if d := c.Request("t1", 1, "x"); d.Kind != Grant {
		t.Fatal("fresh timestamp must grant")
	}
}

// preventerFixture: k=3 nest with t1,t2 in one class (level 2) and t3 alone
// (level 1 with everyone).
func preventerFixture() (*nest.Nest, breakpoint.Spec) {
	n := nest.New(3)
	n.Add("t1", "g")
	n.Add("t2", "g")
	n.Add("t3", "solo")
	// Breakpoints are reported to the control by the caller in these unit
	// tests; the spec here is only used for k.
	return n, breakpoint.Uniform{Levels: 3, C: 3}
}

func TestPreventerWaitsForBreakpoint(t *testing.T) {
	n, spec := preventerFixture()
	p := NewPreventer(n, spec)
	p.Begin("t1", 1)
	p.Begin("t2", 2)
	if d := p.Request("t1", 1, "x"); d.Kind != Grant {
		t.Fatal("first access grants")
	}
	p.Performed("t1", 1, "x", 3) // level-3 cut: only t1 itself may pass
	if d := p.Request("t2", 1, "x"); d.Kind != Wait {
		t.Fatal("t2 must wait: no level-2 breakpoint after t1's step")
	}
	if d := p.Request("t1", 2, "x"); d.Kind != Grant {
		t.Fatal("t1 may continue on its own entity")
	}
	p.Performed("t1", 2, "x", 2) // level-2 cut
	if d := p.Request("t2", 1, "x"); d.Kind != Grant {
		t.Fatal("after a level-2 breakpoint t2 may access x")
	}
}

func TestPreventerLevelOneRequiresFinish(t *testing.T) {
	n, spec := preventerFixture()
	p := NewPreventer(n, spec)
	p.Begin("t1", 1)
	p.Begin("t3", 3)
	p.Request("t1", 1, "x")
	p.Performed("t1", 1, "x", 2) // even a level-2 cut...
	if d := p.Request("t3", 1, "x"); d.Kind != Wait {
		t.Fatal("level-1 transactions may never interleave: t3 must wait")
	}
	p.Finished("t1")
	if d := p.Request("t3", 1, "x"); d.Kind != Grant {
		t.Fatal("after t1 finishes t3 proceeds")
	}
}

func TestPreventerTransitiveDependencies(t *testing.T) {
	n, spec := preventerFixture()
	p := NewPreventer(n, spec)
	p.Begin("t1", 1)
	p.Begin("t2", 2)
	p.Begin("t3", 3)
	// t1 touches x and crosses a level-2 breakpoint (t2 may pass, t3 may
	// not — level(t1,t3)=1).
	p.Request("t1", 1, "x")
	p.Performed("t1", 1, "x", 2)
	// t2 picks up x (direct dep on t1), crosses level-2 cut, touches y.
	if d := p.Request("t2", 1, "x"); d.Kind != Grant {
		t.Fatal("t2 on x should grant")
	}
	p.Performed("t2", 1, "x", 2)
	if d := p.Request("t2", 2, "y"); d.Kind != Grant {
		t.Fatal("t2 on y should grant")
	}
	p.Performed("t2", 2, "y", 2)
	// t3 wants y: direct predecessor t2 is fine (level(t2,t3)=1 → t2 not
	// finished → wait!). Finish t2; then the folded dependency on t1 must
	// still block t3 until t1 finishes.
	p.Finished("t2")
	if d := p.Request("t3", 1, "y"); d.Kind != Wait {
		t.Fatal("t3 must wait on the transitive predecessor t1")
	}
	p.Finished("t1")
	if d := p.Request("t3", 1, "y"); d.Kind != Grant {
		t.Fatal("all predecessors closed: t3 proceeds")
	}
}

// TestPreventerDirectModeMissesTransitive runs TestPreventerTransitiveDependencies's
// history through the direct-only ablation, built as New builds it.
func TestPreventerDirectModeMissesTransitive(t *testing.T) {
	n, spec := preventerFixture()
	c, err := New(KindPreventDirect, n, spec)
	if err != nil {
		t.Fatal(err)
	}
	p := c.(*directPreventer)
	p.Begin("t1", 1)
	p.Begin("t2", 2)
	p.Begin("t3", 3)
	p.Request("t1", 1, "x")
	p.Performed("t1", 1, "x", 2)
	p.Request("t2", 1, "x")
	p.Performed("t2", 1, "x", 2)
	p.Request("t2", 2, "y")
	p.Performed("t2", 2, "y", 2)
	p.Finished("t2")
	// The unsound ablation grants t3 although t1 is still open at level 1.
	if d := p.Request("t3", 1, "y"); d.Kind != Grant {
		t.Fatal("direct-only mode should (unsoundly) grant — that is the ablation's point")
	}
}

func TestPreventerAbortCleansState(t *testing.T) {
	n, spec := preventerFixture()
	p := NewPreventer(n, spec)
	p.Begin("t1", 1)
	p.Begin("t2", 2)
	p.Request("t1", 1, "x")
	p.Performed("t1", 1, "x", 3)
	if d := p.Request("t2", 1, "x"); d.Kind != Wait {
		t.Fatal("setup: t2 waits")
	}
	p.Aborted([]model.TxnID{"t1"})
	if d := p.Request("t2", 1, "x"); d.Kind != Grant {
		t.Fatal("after t1's rollback its access record must be gone")
	}
	// Restarted t1 gets a clean slate.
	p.Begin("t1", 1)
	if d := p.Request("t1", 1, "x"); d.Kind != Grant {
		t.Fatal("restarted t1 must proceed")
	}
}

func TestPreventerRetired(t *testing.T) {
	n, spec := preventerFixture()
	p := NewPreventer(n, spec)
	p.Begin("t1", 1)
	p.Request("t1", 1, "x")
	p.Performed("t1", 1, "x", 3)
	p.Finished("t1")
	p.Retired("t1")
	if p.ClosureSteps() != 0 || p.ClosureSlots() != 0 || p.Stats().Sealed != 1 {
		t.Fatalf("after the retire: %d live steps, %d slots, %d sealed", p.ClosureSteps(), p.ClosureSlots(), p.Stats().Sealed)
	}
	if len(p.prio)+len(p.finished) != 0 {
		t.Fatalf("retired transaction still tracked: prio=%v finished=%v", p.prio, p.finished)
	}
	p.Begin("t3", 3)
	if d := p.Request("t3", 1, "x"); d.Kind != Grant {
		t.Fatal("retired transactions impose no constraints")
	}
}

// TestPreventerDirectRetired is TestPreventerRetired for the direct-only
// ablation: a retire drops the transaction's record and counts it sealed.
func TestPreventerDirectRetired(t *testing.T) {
	n, _ := preventerFixture()
	p := newDirectPreventer(n)
	p.Begin("t1", 1)
	p.Request("t1", 1, "x")
	p.Performed("t1", 1, "x", 3)
	p.Finished("t1")
	p.Retired("t1")
	if len(p.prio)+len(p.txns) != 0 || p.Stats().Sealed != 1 {
		t.Fatalf("retired transaction still tracked: prio=%v txns=%v, %d sealed", p.prio, p.txns, p.Stats().Sealed)
	}
	p.Begin("t3", 3)
	if d := p.Request("t3", 1, "x"); d.Kind != Grant {
		t.Fatal("retired transactions impose no constraints")
	}
}

// TestPreventerRetiredLingers: a commit whose closure-predecessor is still
// running stays in the closure, and is sealed with it — by the
// predecessor's own commit, or by the rollback that removes it.
func TestPreventerRetiredLingers(t *testing.T) {
	for _, outcome := range []string{"commit", "abort"} {
		n, spec := preventerFixture()
		p := NewPreventer(n, spec)
		p.Begin("t1", 1)
		p.Begin("t2", 2)
		p.Request("t1", 1, "x")
		p.Performed("t1", 1, "x", 2) // level-2 cut: classmate t2 may follow
		if d := p.Request("t2", 1, "x"); d.Kind != Grant {
			t.Fatalf("t2 after t1's level-2 breakpoint: %v", d.Kind)
		}
		p.Performed("t2", 1, "x", 0)
		p.Finished("t2")
		p.Retired("t2")
		if p.ClosureSteps() != 2 || p.Stats().Sealed != 0 {
			t.Fatalf("%s: t2 sealed ahead of its predecessor t1: %d live steps, %d sealed", outcome, p.ClosureSteps(), p.Stats().Sealed)
		}
		if outcome == "commit" {
			p.Finished("t1")
			p.Retired("t1")
		} else {
			p.Aborted([]model.TxnID{"t1"})
		}
		if p.ClosureSteps() != 0 || len(p.finished) != 0 {
			t.Fatalf("%s of t1 left %d live steps, finished=%v", outcome, p.ClosureSteps(), p.finished)
		}
	}
}

// TestDetectorRetired is the Detector twin: a retired transaction is out of
// the closure, so it can no longer be named in a cycle or picked as victim —
// the access pattern that is a cycle against a live t1 is none after it.
func TestDetectorRetired(t *testing.T) {
	for _, retire := range []bool{false, true} {
		n := nest.New(2)
		n.Add("t1")
		n.Add("t2")
		d := NewDetector(n, breakpoint.Uniform{Levels: 2, C: 2})
		d.Begin("t1", 1)
		d.Begin("t2", 2)
		perform := func(txn model.TxnID, seq int, x model.EntityID) {
			t.Helper()
			if dec := d.Request(txn, seq, x); dec.Kind != Grant {
				t.Fatalf("%s[%d] on %s: %v", txn, seq, x, dec.Kind)
			}
			d.Performed(txn, seq, x, 2)
		}
		perform("t1", 1, "x")
		perform("t1", 2, "y")
		d.Finished("t1")
		if retire {
			d.Retired("t1")
			if d.ClosureSteps() != 0 || d.Stats().Sealed != 1 || len(d.prio) != 1 || len(d.finished) != 0 {
				t.Fatalf("after the retire: %d live steps, %d sealed, prio=%v finished=%v", d.ClosureSteps(), d.Stats().Sealed, d.prio, d.finished)
			}
		}
		perform("t2", 1, "y") // t1 → t2 while t1 is in the closure
		d.Begin("t3", 3)
		n.Add("t3")
		perform("t3", 1, "x")
		perform("t3", 2, "y") // t2 → t3
		// t2 on x closes t3 → t2 either way; the victim is the youngest
		// unfinished member, never the finished (or retired) t1.
		dec := d.Request("t2", 2, "x")
		if dec.Kind != Abort || len(dec.Victims) != 1 || dec.Victims[0] != "t3" {
			t.Fatalf("retire=%v: decision %v %v, want abort of t3", retire, dec.Kind, dec.Victims)
		}
		d.Aborted(dec.Victims)
		if want := map[bool]int{false: 3, true: 1}[retire]; d.ClosureSteps() != want {
			t.Fatalf("retire=%v: %d live steps after the rollback, want %d", retire, d.ClosureSteps(), want)
		}
	}
}

func TestDetectorFindsSerializabilityCycle(t *testing.T) {
	n := nest.New(2)
	n.Add("t1")
	n.Add("t2")
	d := NewDetector(n, breakpoint.Uniform{Levels: 2, C: 2})
	d.Begin("t1", 1)
	d.Begin("t2", 2)
	mustGrant := func(txn model.TxnID, seq int, x model.EntityID) {
		t.Helper()
		if dec := d.Request(txn, seq, x); dec.Kind != Grant {
			t.Fatalf("%s[%d] on %s: %v", txn, seq, x, dec.Kind)
		}
		d.Performed(txn, seq, x, 2)
	}
	mustGrant("t1", 1, "x")
	mustGrant("t2", 1, "x") // t1 → t2
	mustGrant("t2", 2, "y")
	// t1 on y would close t2 → t1: cycle under k=2.
	dec := d.Request("t1", 2, "y")
	if dec.Kind != Abort {
		t.Fatalf("expected cycle abort, got %v", dec.Kind)
	}
	if d.Stats().Cycles != 1 {
		t.Errorf("cycles = %d", d.Stats().Cycles)
	}
	// Victim should be the youngest involved: t2.
	if len(dec.Victims) != 1 || dec.Victims[0] != "t2" {
		t.Errorf("victims = %v", dec.Victims)
	}
	d.Aborted(dec.Victims)
	// After the rollback t1 proceeds.
	if dec := d.Request("t1", 2, "y"); dec.Kind != Grant {
		t.Fatalf("post-abort request: %v", dec.Kind)
	}
}

func TestDetectorAllowsMLAInterleaving(t *testing.T) {
	// Same access pattern as above, but t1,t2 share a compatibility class
	// (k=3, every boundary a level-2 cut): no cycle in the coherent closure.
	n := nest.New(3)
	n.Add("t1", "g")
	n.Add("t2", "g")
	d := NewDetector(n, breakpoint.Uniform{Levels: 3, C: 2})
	d.Begin("t1", 1)
	d.Begin("t2", 2)
	seqs := []struct {
		txn model.TxnID
		seq int
		x   model.EntityID
	}{
		{"t1", 1, "x"}, {"t2", 1, "x"}, {"t2", 2, "y"}, {"t1", 2, "y"},
	}
	for _, s := range seqs {
		if dec := d.Request(s.txn, s.seq, s.x); dec.Kind != Grant {
			t.Fatalf("%s[%d]: %v", s.txn, s.seq, dec.Kind)
		}
		d.Performed(s.txn, s.seq, s.x, 2)
	}
	if d.Stats().Cycles != 0 {
		t.Errorf("cycles = %d, want 0 under compatibility sets", d.Stats().Cycles)
	}
}

func TestDetectorPinnedObligation(t *testing.T) {
	// k=3, t1,t2 level 2, no interior cuts (C=3): t2 seeing t1's data pins
	// t2 after ALL of t1's segment; if t1 then tries to follow t2, cycle.
	n := nest.New(3)
	n.Add("t1", "g")
	n.Add("t2", "g")
	d := NewDetector(n, breakpoint.Uniform{Levels: 3, C: 3})
	d.Begin("t1", 1)
	d.Begin("t2", 2)
	if dec := d.Request("t1", 1, "x"); dec.Kind != Grant {
		t.Fatal("t1 x")
	}
	d.Performed("t1", 1, "x", 3)
	if dec := d.Request("t2", 1, "x"); dec.Kind != Grant {
		t.Fatal("t2 x") // t1 → t2, and t2 pinned after t1's open segment
	}
	d.Performed("t2", 1, "x", 3)
	if dec := d.Request("t2", 2, "y"); dec.Kind != Grant {
		t.Fatal("t2 y")
	}
	d.Performed("t2", 2, "y", 3)
	// t1's next step must precede t2's first step (pinned) but follows
	// t2's y step if it touches y: cycle.
	dec := d.Request("t1", 2, "y")
	if dec.Kind != Abort {
		t.Fatalf("expected abort, got %v", dec.Kind)
	}
}

func TestStatsString(t *testing.T) {
	if Grant.String() != "grant" || Wait.String() != "wait" || Abort.String() != "abort" {
		t.Error("Kind strings wrong")
	}
	if Kind(99).String() != "unknown" {
		t.Error("unknown kind")
	}
}

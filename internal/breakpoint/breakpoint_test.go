package breakpoint

import (
	"fmt"
	"testing"
	"testing/quick"

	"mla/internal/model"
)

// paperTransfer builds the 4-level description from the paper's Section 4.2
// banking example: steps w1 w2 w3 δ1 δ2, with B(2) classes {w1,w2,w3} and
// {δ1,δ2} (one level-2 cut between positions 3 and 4) and B(3)=B(4)
// singletons (every interior position cut at level 3).
func paperTransfer() *Description {
	d := NewDescription(4, 5)
	for p := 1; p <= 4; p++ {
		d.SetCut(p, 3)
	}
	d.SetCut(3, 2)
	return d
}

func TestPaperBankingDescription(t *testing.T) {
	d := paperTransfer()
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	// B(1): one class of all 5.
	if c := d.Classes(1); len(c) != 1 || c[0] != [2]int{1, 5} {
		t.Errorf("B(1) classes = %v", c)
	}
	// B(2): {1..3},{4..5}.
	if c := d.Classes(2); len(c) != 2 || c[0] != [2]int{1, 3} || c[1] != [2]int{4, 5} {
		t.Errorf("B(2) classes = %v", c)
	}
	// B(3) and B(4): singletons.
	for lv := 3; lv <= 4; lv++ {
		c := d.Classes(lv)
		if len(c) != 5 {
			t.Errorf("B(%d) has %d classes, want 5", lv, len(c))
		}
	}
}

func TestSameSegment(t *testing.T) {
	d := paperTransfer()
	if !d.SameSegment(1, 3, 2) {
		t.Error("w1..w3 share the B(2) segment")
	}
	if d.SameSegment(3, 4, 2) {
		t.Error("w3 and δ1 are separated by the level-2 breakpoint")
	}
	if d.SameSegment(1, 2, 3) {
		t.Error("B(3) is singletons")
	}
	if !d.SameSegment(2, 2, 4) {
		t.Error("a step shares every segment with itself")
	}
	if !d.SameSegment(1, 5, 1) {
		t.Error("B(1) never separates")
	}
	// Argument order must not matter.
	if d.SameSegment(4, 3, 2) {
		t.Error("SameSegment must be symmetric")
	}
}

func TestSegmentBounds(t *testing.T) {
	d := paperTransfer()
	if got := d.SegmentEnd(1, 2); got != 3 {
		t.Errorf("SegmentEnd(1,2) = %d, want 3", got)
	}
	if got := d.SegmentEnd(4, 2); got != 5 {
		t.Errorf("SegmentEnd(4,2) = %d, want 5", got)
	}
	if got := d.SegmentStart(5, 2); got != 4 {
		t.Errorf("SegmentStart(5,2) = %d, want 4", got)
	}
	if got := d.SegmentEnd(2, 1); got != 5 {
		t.Errorf("SegmentEnd(2,1) = %d, want 5", got)
	}
	if got := d.SegmentEnd(2, 3); got != 2 {
		t.Errorf("SegmentEnd(2,3) = %d, want 2", got)
	}
}

func TestCoarsenessAndCuts(t *testing.T) {
	d := paperTransfer()
	if d.Coarseness(3) != 2 || d.Coarseness(1) != 3 {
		t.Errorf("coarseness: pos3=%d pos1=%d", d.Coarseness(3), d.Coarseness(1))
	}
	if !d.IsCut(3, 2) || d.IsCut(1, 2) || !d.IsCut(1, 3) || d.IsCut(3, 1) {
		t.Error("IsCut misclassifies positions")
	}
	// SetCut keeps the coarsest.
	d.SetCut(3, 4)
	if d.Coarseness(3) != 2 {
		t.Error("SetCut must keep the coarser cut")
	}
}

func TestDefaultDescriptionIsAtomic(t *testing.T) {
	d := NewDescription(3, 4)
	if len(d.Classes(2)) != 1 {
		t.Error("default description has no cuts below k")
	}
	if len(d.Classes(3)) != 4 {
		t.Error("B(k) must be singletons")
	}
}

func TestDescriptionEdgeCases(t *testing.T) {
	d0 := NewDescription(2, 0)
	if d0.Classes(1) != nil {
		t.Error("empty description has no classes")
	}
	d1 := NewDescription(2, 1)
	if c := d1.Classes(2); len(c) != 1 {
		t.Errorf("single-step description: %v", c)
	}
}

// Property: for any random cut assignment, the segmentation axioms hold —
// B(i) refines B(i-1), classes are contiguous, and SameSegment agrees with
// Classes.
func TestQuickSegmentationAxioms(t *testing.T) {
	f := func(cutsRaw []uint8) bool {
		k, n := 4, 8
		d := NewDescription(k, n)
		for i, c := range cutsRaw {
			pos := i%(n-1) + 1
			lvl := int(c)%(k-1) + 2
			d.SetCut(pos, lvl)
		}
		if d.Validate() != nil {
			return false
		}
		for lv := 2; lv <= k; lv++ {
			fine := d.Classes(lv)
			coarse := d.Classes(lv - 1)
			// Refinement: every fine class lies inside one coarse class.
			for _, fc := range fine {
				inside := false
				for _, cc := range coarse {
					if fc[0] >= cc[0] && fc[1] <= cc[1] {
						inside = true
						break
					}
				}
				if !inside {
					return false
				}
			}
			// SameSegment consistency.
			for _, fc := range fine {
				for i := fc[0]; i <= fc[1]; i++ {
					for j := i; j <= fc[1]; j++ {
						if !d.SameSegment(i, j, lv) {
							return false
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDescribeUsesPrefixes(t *testing.T) {
	// Coarseness 2 after any step labeled "w" whose position is even.
	spec := Func{Levels: 3, Fn: func(_ model.TxnID, prefix []model.Step) int {
		if len(prefix)%2 == 0 {
			return 2
		}
		return 3
	}}
	steps := make([]model.Step, 5)
	for i := range steps {
		steps[i] = model.Step{Txn: "t", Seq: i + 1, Entity: "x"}
	}
	d := Describe(spec, "t", steps)
	if d.Coarseness(2) != 2 || d.Coarseness(4) != 2 || d.Coarseness(1) != 3 || d.Coarseness(3) != 3 {
		t.Errorf("Describe cuts wrong: %d %d %d %d",
			d.Coarseness(1), d.Coarseness(2), d.Coarseness(3), d.Coarseness(4))
	}
}

func TestUniformSpecs(t *testing.T) {
	u := Uniform{Levels: 2, C: 2}
	if u.K() != 2 || u.CutAfter("t", nil) != 2 {
		t.Error("serializability spec wrong")
	}
	g := Uniform{Levels: 3, C: 2}
	steps := []model.Step{{Txn: "t", Seq: 1, Entity: "x"}, {Txn: "t", Seq: 2, Entity: "y"}}
	d := Describe(g, "t", steps)
	if !d.IsCut(1, 2) {
		t.Error("compatibility-sets spec must cut everywhere at level 2")
	}
}

func TestDescriptionPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	d := NewDescription(3, 3)
	mustPanic("bad k", func() { NewDescription(1, 3) })
	mustPanic("cut pos 0", func() { d.SetCut(0, 2) })
	mustPanic("cut pos n", func() { d.SetCut(3, 2) })
	mustPanic("cut level 1", func() { d.SetCut(1, 1) })
	mustPanic("step 0", func() { d.SegmentEnd(0, 2) })
}

func TestClamp(t *testing.T) {
	base := Func{Levels: 5, Fn: func(_ model.TxnID, prefix []model.Step) int {
		return 2 + len(prefix)%3 // 3, 4, 2, ...
	}}
	c := Clamp(base, 3)
	if c.K() != 3 {
		t.Fatalf("K = %d", c.K())
	}
	one := []model.Step{{Txn: "t", Seq: 1}}
	two := append(one, model.Step{Txn: "t", Seq: 2})
	if got := c.CutAfter("t", one); got != 3 {
		t.Errorf("clamped = %d, want 3", got)
	}
	if got := c.CutAfter("t", two); got != 3 { // 4 clamped to 3
		t.Errorf("clamped = %d, want 3", got)
	}
	mustPanic := func(f func()) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic")
			}
		}()
		f()
	}
	mustPanic(func() { Clamp(base, 1) })
	mustPanic(func() { Clamp(base, 6) })
}

// Validate checks internal consistency: every coarseness in [2, k].
func (d *Description) Validate() error {
	for i, c := range d.coarse {
		if c < 2 || c > d.k {
			return fmt.Errorf("breakpoint: position %d has coarseness %d outside [2,%d]", i+1, c, d.k)
		}
	}
	return nil
}

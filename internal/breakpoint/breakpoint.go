// Package breakpoint implements k-level breakpoint descriptions and
// specifications (Section 4.2 of the paper).
//
// A k-level breakpoint description B for a totally ordered set of n steps is
// a k-nest of segmentations: B(1) groups all steps into one segment, B(k)
// splits them into singletons, and each B(i) refines B(i-1). Equivalently,
// the boundary positions nest: cuts(1) = ∅ ⊆ cuts(2) ⊆ … ⊆ cuts(k) = all
// interior positions. The package therefore stores, for each interior
// boundary position p ∈ 1..n-1 (between step p and step p+1, steps
// 1-based), its "coarseness": the minimum level at which p is a cut.
// B(level) has a cut at p exactly when coarseness(p) ≤ level. Coarseness
// ranges over 2..k — level 1 never cuts, level k always does.
//
// Intuition for scheduling: a transaction t′ with level(t,t′) = L is
// permitted to interrupt t exactly at boundaries of B(L), i.e. at positions
// with coarseness ≤ L. Small coarseness = coarse breakpoint = many
// transactions may interleave there; coarseness k = nobody may (only t
// itself, vacuously).
package breakpoint

import "fmt"

// Description is a k-level breakpoint description for one execution of one
// transaction with n steps.
type Description struct {
	k      int
	n      int
	coarse []int // coarse[p-1] for interior boundary position p in 1..n-1
}

// NewDescription returns the description with no breakpoints below level k:
// every interior position has coarseness k (B(i) = one segment for all
// i < k, B(k) = singletons). With k = 2 this is the unique description of
// Section 4.3, under which multilevel atomicity is serializability.
func NewDescription(k, n int) *Description {
	if k < 2 {
		panic(fmt.Sprintf("breakpoint: k must be >= 2, got %d", k))
	}
	if n < 0 {
		panic(fmt.Sprintf("breakpoint: negative step count %d", n))
	}
	d := &Description{k: k, n: n}
	if n > 1 {
		d.coarse = make([]int, n-1)
		for i := range d.coarse {
			d.coarse[i] = k
		}
	}
	return d
}

// K returns the number of levels.
func (d *Description) K() int { return d.k }

// Len returns the number of steps described.
func (d *Description) Len() int { return d.n }

// SetCut declares a breakpoint of the given level at interior position pos
// (1..n-1): position pos becomes a cut of B(level) and, by nesting, of every
// finer B(j), j ≥ level. If the position already has a coarser cut, SetCut
// keeps the coarser one.
func (d *Description) SetCut(pos, level int) {
	d.checkPos(pos)
	if level < 2 || level > d.k {
		panic(fmt.Sprintf("breakpoint: cut level %d out of range [2,%d]", level, d.k))
	}
	if level < d.coarse[pos-1] {
		d.coarse[pos-1] = level
	}
}

// Coarseness returns the minimum level at which interior position pos is a
// cut.
func (d *Description) Coarseness(pos int) int {
	d.checkPos(pos)
	return d.coarse[pos-1]
}

// IsCut reports whether position pos is a boundary of B(level).
func (d *Description) IsCut(pos, level int) bool {
	d.checkPos(pos)
	if level < 1 || level > d.k {
		panic(fmt.Sprintf("breakpoint: level %d out of range [1,%d]", level, d.k))
	}
	return d.coarse[pos-1] <= level
}

func (d *Description) checkPos(pos int) {
	if pos < 1 || pos >= d.n {
		panic(fmt.Sprintf("breakpoint: interior position %d out of range [1,%d)", pos, d.n))
	}
}

// SameSegment reports whether steps i and j (1-based) lie in the same
// equivalence class of B(level): no cut of B(level) separates them.
func (d *Description) SameSegment(i, j, level int) bool {
	if i > j {
		i, j = j, i
	}
	d.checkStep(i)
	d.checkStep(j)
	for p := i; p < j; p++ {
		if d.coarse[p-1] <= level {
			return false
		}
	}
	return true
}

// SegmentEnd returns the last step (1-based) of the B(level) segment
// containing step i.
func (d *Description) SegmentEnd(i, level int) int {
	d.checkStep(i)
	for p := i; p < d.n; p++ {
		if d.coarse[p-1] <= level {
			return p
		}
	}
	return d.n
}

// SegmentStart returns the first step (1-based) of the B(level) segment
// containing step i.
func (d *Description) SegmentStart(i, level int) int {
	d.checkStep(i)
	for p := i - 1; p >= 1; p-- {
		if d.coarse[p-1] <= level {
			return p + 1
		}
	}
	return 1
}

func (d *Description) checkStep(i int) {
	if i < 1 || i > d.n {
		panic(fmt.Sprintf("breakpoint: step %d out of range [1,%d]", i, d.n))
	}
}

// Classes returns the segments of B(level) as half-open intervals of
// 1-based step indices [start, end] inclusive, in order.
func (d *Description) Classes(level int) [][2]int {
	if d.n == 0 {
		return nil
	}
	var out [][2]int
	start := 1
	for p := 1; p < d.n; p++ {
		if d.coarse[p-1] <= level {
			out = append(out, [2]int{start, p})
			start = p + 1
		}
	}
	out = append(out, [2]int{start, d.n})
	return out
}

package breakpoint

import (
	"fmt"

	"mla/internal/model"
)

// Spec is a k-level breakpoint specification for a system of transactions
// (Section 4.3): it supplies a breakpoint description for every execution of
// every transaction. Because transactions branch, the description may depend
// on the steps actually taken.
//
// The interface is deliberately *online*: CutAfter answers "is there a
// breakpoint immediately after this prefix, and how coarse?" given only the
// prefix. This builds in the compatibility condition of Section 6 — two
// executions sharing a prefix necessarily agree on the breakpoint after it —
// which is exactly what an on-line concurrency control needs.
type Spec interface {
	// K returns the number of levels (same k as the companion nest).
	K() int
	// CutAfter returns the coarseness (minimum level, in 2..K) of the
	// breakpoint after the first len(prefix) steps of transaction t, for a
	// transaction that is not yet finished. A return of K means "no
	// breakpoint for anybody else here" (only the trivial singleton cut).
	CutAfter(t model.TxnID, prefix []model.Step) int
}

// Describe materializes the full k-level breakpoint description for a
// completed execution of t with the given steps, by querying CutAfter on
// every proper prefix.
func Describe(s Spec, t model.TxnID, steps []model.Step) *Description {
	d := NewDescription(s.K(), len(steps))
	for p := 1; p < len(steps); p++ {
		c := s.CutAfter(t, steps[:p])
		if c < 2 || c > s.K() {
			panic(fmt.Sprintf("breakpoint: spec returned coarseness %d for %s at position %d, want [2,%d]",
				c, t, p, s.K()))
		}
		d.SetCut(p, c)
	}
	return d
}

// Uniform is the specification in which every interior boundary of every
// transaction has the same coarseness C.
//
//   - Uniform{K: 2, C: 2} is the unique 2-level specification: multilevel
//     atomicity degenerates to classical serializability (Section 4.3).
//   - Uniform{K: 3, C: 2} is Garcia-Molina's compatibility sets [G]:
//     transactions in a common π(2) class interleave arbitrarily, all others
//     serialize (Section 4.3, second example).
//   - Uniform{K: k, C: k} forbids all interior breakpoints: full mutual
//     atomicity regardless of the nest.
type Uniform struct {
	Levels int // k
	C      int // coarseness of every interior boundary
}

// K implements Spec.
func (u Uniform) K() int { return u.Levels }

// CutAfter implements Spec.
func (u Uniform) CutAfter(model.TxnID, []model.Step) int { return u.C }

// Func adapts a closure to the Spec interface.
type Func struct {
	Levels int
	Fn     func(t model.TxnID, prefix []model.Step) int
}

// K implements Spec.
func (f Func) K() int { return f.Levels }

// CutAfter implements Spec.
func (f Func) CutAfter(t model.TxnID, prefix []model.Step) int { return f.Fn(t, prefix) }

// ByLabel assigns coarseness from the labels of the steps flanking the
// boundary: the coarsest matching rule wins, falling back to Default. It
// captures patterns like the paper's banking description, where the single
// level-2 breakpoint of a transfer sits between the last withdrawal and the
// first deposit.
type ByLabel struct {
	Levels  int
	Default int
	// Rules maps "beforeLabel/afterLabel" to a coarseness. Either side may
	// be "*" to match any label.
	Rules map[string]int
}

// K implements Spec.
func (b ByLabel) K() int { return b.Levels }

// CutAfter implements Spec.
func (b ByLabel) CutAfter(t model.TxnID, prefix []model.Step) int {
	// The label after the boundary is unknowable online (the next step has
	// not happened); ByLabel therefore keys on the label *before* the
	// boundary plus a wildcard, which keeps it compatible in the Section 6
	// sense. Rules of the form "label/*" and "*/*" are honored.
	last := prefix[len(prefix)-1].Label
	best := b.Default
	if c, ok := b.Rules[last+"/*"]; ok && c < best {
		best = c
	}
	if c, ok := b.Rules["*/*"]; ok && c < best {
		best = c
	}
	if best < 2 {
		best = 2
	}
	if best > b.Levels {
		best = b.Levels
	}
	return best
}

// Clamp restricts a specification to fewer levels: coarseness values above
// k are clamped to k (a boundary nobody may use) and K() reports k. It is
// the generic form of "flattening" a hierarchy — see the CAD workload's
// nest-depth experiment — and requires k ≤ the wrapped spec's K.
func Clamp(s Spec, k int) Spec {
	if k < 2 || k > s.K() {
		panic(fmt.Sprintf("breakpoint: clamp level %d out of range [2,%d]", k, s.K()))
	}
	return clamped{inner: s, k: k}
}

type clamped struct {
	inner Spec
	k     int
}

// K implements Spec.
func (c clamped) K() int { return c.k }

// CutAfter implements Spec.
func (c clamped) CutAfter(t model.TxnID, prefix []model.Step) int {
	v := c.inner.CutAfter(t, prefix)
	if v > c.k {
		return c.k
	}
	return v
}

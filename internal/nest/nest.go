// Package nest implements k-nests (Section 4.2 of the paper): a chain of
// successively finer equivalence relations π(1) ⊇ π(2) ⊇ … ⊇ π(k) over a set
// of transactions, where π(1) has a single class and π(k) has singleton
// classes. Because nested equivalence relations form a hierarchy, a k-nest
// is represented by assigning each transaction a row of class labels for
// the intermediate levels 2..k-1: two distinct transactions are
// π(i)-equivalent exactly when their rows agree on the first i-1 labels.
// π(1) and π(k) carry no information and are implicit, so level(t,t′) — the
// largest i with (t,t′) ∈ π(i) — is k when t = t′ and otherwise one plus
// the length of the rows' longest common prefix.
package nest

import (
	"fmt"
	"slices"
	"strings"

	"mla/internal/model"
)

// Nest is a k-nest for a set of transactions. The zero value is unusable;
// construct with New.
//
// Every row has the same width, k-2, and all of them live in one slab: row
// r is mids[r*(k-2):(r+1)*(k-2)]. Adding a transaction appends its row, so
// the nest allocates only as the slab and the row map grow, and a freed row
// could be overwritten in place.
type Nest struct {
	k    int
	row  map[model.TxnID]int // each transaction's row number
	mids []string
}

// New creates an empty k-nest. k must be at least 2: the paper's definition
// needs the trivial top relation π(1) and the singleton bottom relation
// π(k). k=2 yields classical serializability (Section 4.3).
func New(k int) *Nest {
	if k < 2 {
		panic(fmt.Sprintf("nest: k must be >= 2, got %d", k))
	}
	return &Nest{k: k, row: make(map[model.TxnID]int)}
}

// K returns the number of levels.
func (n *Nest) K() int { return n.k }

// Add registers transaction t with the given intermediate class labels for
// levels 2..k-1 (so len(mid) must be k-2); the nest keeps a copy. Level 1 is
// the universal class and level k is the singleton class {t}; both are
// implicit. Add panics on a wrong label count or a duplicate transaction —
// both are programming errors in the specification being built.
func (n *Nest) Add(t model.TxnID, mid ...string) {
	if len(mid) != n.k-2 {
		panic(fmt.Sprintf("nest: transaction %s: need %d intermediate labels for a %d-nest, got %d",
			t, n.k-2, n.k, len(mid)))
	}
	if _, dup := n.row[t]; dup {
		panic(fmt.Sprintf("nest: transaction %s added twice", t))
	}
	n.row[t] = len(n.row)
	n.mids = append(n.mids, mid...)
}

// Has reports whether t is registered.
func (n *Nest) Has(t model.TxnID) bool { _, ok := n.row[t]; return ok }

// rowOf returns t's row number, panicking if t is unregistered, since a
// missing transaction means the interleaving specification is incomplete.
func (n *Nest) rowOf(t model.TxnID) int {
	r, ok := n.row[t]
	if !ok {
		unknown(t)
	}
	return r
}

// unknown panics out of line, so that rowOf inlines into Level.
//
//go:noinline
func unknown(t model.TxnID) { panic(fmt.Sprintf("nest: unknown transaction %s", t)) }

// labels returns row r's intermediate labels.
func (n *Nest) labels(r int) []string {
	w := n.k - 2
	return n.mids[r*w : r*w+w]
}

// Level returns level(t,t′): the largest i (1-based) such that t and t′ lie
// in a common π(i) class. Level(t,t) = k. It panics if either transaction is
// unregistered.
func (n *Nest) Level(t, u model.TxnID) int {
	rt, ru := n.rowOf(t), n.rowOf(u)
	if rt == ru {
		return n.k
	}
	lt, lu := n.labels(rt), n.labels(ru)
	lvl := 1
	for i := range lt {
		if lt[i] != lu[i] {
			break
		}
		lvl++
	}
	return lvl
}

// SameClass reports whether (t,u) ∈ π(level).
func (n *Nest) SameClass(t, u model.TxnID, level int) bool {
	if level < 1 || level > n.k {
		panic(fmt.Sprintf("nest: level %d out of range [1,%d]", level, n.k))
	}
	return n.Level(t, u) >= level
}

// Classes returns the equivalence classes of π(level), each sorted. The
// classes are ordered by the labels that decide them, and the singletons of
// π(k) by (labels, id). All classes share one backing array, each capped at
// its own end.
func (n *Nest) Classes(level int) [][]model.TxnID {
	if level < 1 || level > n.k {
		panic(fmt.Sprintf("nest: level %d out of range [1,%d]", level, n.k))
	}
	type member struct {
		t model.TxnID
		r int
	}
	ms := make([]member, 0, len(n.row))
	for t, r := range n.row {
		ms = append(ms, member{t, r})
	}
	// The first level-1 labels decide a π(level) class; π(k) reads all k-2.
	key := func(m member) []string { return n.labels(m.r)[:min(level-1, n.k-2)] }
	slices.SortFunc(ms, func(a, b member) int {
		ka, kb := key(a), key(b)
		for i := range ka {
			if c := strings.Compare(ka[i], kb[i]); c != 0 {
				return c
			}
		}
		return strings.Compare(string(a.t), string(b.t))
	})
	ids := make([]model.TxnID, len(ms))
	out := make([][]model.TxnID, 0)
	start := 0
	for i, m := range ms {
		ids[i] = m.t
		if i > 0 && (level == n.k || !slices.Equal(key(ms[i-1]), key(m))) {
			out = append(out, ids[start:i:i])
			start = i
		}
	}
	if len(ids) > 0 {
		out = append(out, ids[start:])
	}
	return out
}

// Validate checks the k-nest axioms over the registered transactions:
// π(1) is one class, π(k) is singletons, and each π(i) refines π(i-1). With
// the row representation all three hold by construction — π(1) and π(k)
// are implicit, every row has k-2 labels, and a label decides a class only
// together with the labels before it, so the same label may safely recur
// under different parents ("team1" inside two specialties). What is left to
// reject is an empty nest.
func (n *Nest) Validate() error {
	if len(n.row) == 0 {
		return fmt.Errorf("nest: no transactions registered")
	}
	return nil
}

// Restrict returns a new nest containing only the transactions in keep,
// preserving k and labels; the new nest copies the kept rows into a slab of
// its own. Transactions absent from the nest are ignored.
func (n *Nest) Restrict(keep []model.TxnID) *Nest {
	out := &Nest{k: n.k, row: make(map[model.TxnID]int, len(keep)), mids: make([]string, 0, len(keep)*(n.k-2))}
	for _, t := range keep {
		if r, ok := n.row[t]; ok && !out.Has(t) {
			out.Add(t, n.labels(r)...)
		}
	}
	return out
}

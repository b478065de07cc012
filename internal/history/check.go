package history

import (
	"fmt"
	"math/bits"
	"strings"

	"mla/internal/breakpoint"
	"mla/internal/model"
)

// Witness edge kinds.
const (
	EdgeProgram   = "program"
	EdgeConflict  = "conflict"
	EdgeCoherence = "coherence"
)

// WitnessEdge is one dependency edge of a witness cycle, with the reason it
// exists: program order within a transaction, a conflict (two accesses to
// the same entity, recorded in that order), or the coherence rule (the
// Premise pair forced every remaining step of the premise source's
// level-Level unit — the steps Unit[0]..Unit[1] of From's transaction —
// ahead of To).
type WitnessEdge struct {
	From, To model.StepID
	Kind     string
	Entity   model.EntityID  // conflict edges: the shared entity
	Level    int             // coherence edges: level(txn(From), txn(To))
	Premise  [2]model.StepID // coherence edges: the pair whose insertion fired the rule
	Unit     [2]int          // coherence edges: the B(Level) unit of From's txn (1-based seqs)
}

func (e WitnessEdge) String() string {
	switch e.Kind {
	case EdgeConflict:
		return fmt.Sprintf("%s -> %s  [conflict on %s]", e.From, e.To, e.Entity)
	case EdgeCoherence:
		return fmt.Sprintf("%s -> %s  [coherence: %s -> %s at level %d forces unit %s[%d..%d]]",
			e.From, e.To, e.Premise[0], e.Premise[1], e.Level, e.From.Txn, e.Unit[0], e.Unit[1])
	default:
		return fmt.Sprintf("%s -> %s  [program order]", e.From, e.To)
	}
}

// Witness is a minimal cycle in the generator graph of the coherent
// closure: the shortest sequence of dependency edges returning to its
// start. By Theorem 2 its existence is exactly non-correctability.
type Witness struct {
	Edges []WitnessEdge // Edges[i].To == Edges[i+1].From; the last wraps to the first
}

func (w *Witness) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "witness cycle (%d edges):\n", len(w.Edges))
	for _, e := range w.Edges {
		fmt.Fprintf(&b, "  %s\n", e)
	}
	return b.String()
}

// Report is the checker's verdict on one history.
type Report struct {
	Steps int // committed steps checked
	Txns  int // committed transactions
	K     int

	// Atomic: the recorded order itself is a coherent total order (every
	// interruption of a transaction happened at a permitted breakpoint).
	Atomic bool
	// Correctable: the coherent closure of the dependency order is acyclic
	// (Theorem 2) — some correct system execution explains the history.
	Correctable bool
	// Witness is a minimal offending cycle; non-nil exactly when
	// !Correctable.
	Witness *Witness
}

// edge is a provenance-carrying arc of the generator graph G. Base edges
// (program, conflict) are materialized; coherence-derived edges are NOT —
// a live service run yields histories where the rule would materialize
// O(txns·steps) edges (at level 1 a whole transaction is one unit, so
// every cross-family reachable pair derives an edge), which is gigabytes
// at a few thousand transactions. Derived edges are instead kept implicit
// in the closure bitsets and re-enumerated lazily by forEachSucc when a
// witness cycle must be produced.
type edge struct {
	from, to int
	kind     string
	entity   model.EntityID
	level    int
	premise  [2]int
}

// checker is the working state of one Check call. It deliberately re-derives
// everything from the history — nest levels, breakpoint units, the closure —
// without calling into internal/coherent, so the two implementations can
// disagree and expose each other's bugs.
type checker struct {
	exec    model.Execution
	k       int
	descs   []*breakpoint.Description // txn index -> recorded description
	txns    []model.TxnID
	txnIdx  map[model.TxnID]int
	txnOf   []int   // global step -> txn index
	seqOf   []int   // global step -> 1-based seq
	stepsOf [][]int // txn index -> global steps in seq order

	// class[ti*k+lv-1] is the id of txns[ti]'s π(lv) class, lv = 1..k. Id 0
	// is π(1)'s one class and every π(k) singleton has an id of its own; an
	// intermediate class is keyed by its parent class and its label, since a
	// label may recur under different parents. level(a,b) is then the length
	// of the common prefix of the two rows.
	class   []int32
	members [][]int // class id -> its transactions
	maxLv   int     // deepest level with a class of two or more

	edges []edge
	out   [][]int // adjacency: global step -> indices into edges

	// unitLast[lv][g] is the global index of the last step of g's B(lv)
	// unit — the one step that carries all of the unit's derived edges.
	unitLast [][]int32
	// classSteps[id] (the steps of class id) and masks[id] (for id a
	// π(lv+1) class: the steps of its π(lv) parent outside it, i.e. those
	// at level exactly lv from every member) are built lazily.
	classSteps []bitset
	masks      []bitset
	reach      []bitset
	cyclic     bool

	// Scratch state for ruleInto's per-transaction absorption dedup, and
	// forEachSucc's per-level seen/new target sets.
	tmp, seen, diff bitset
	txnStamp        []int
	stampGen        int
}

// Check replays the history and decides multilevel atomicity of the
// committed execution against the declared level matrix and the recorded
// breakpoint descriptions. It is a black-box oracle: nothing about the
// scheduler that produced the history is trusted or consulted.
func Check(h *History) (*Report, error) {
	c, err := newChecker(h)
	if err != nil {
		return nil, err
	}
	rep := &Report{Steps: len(c.exec), Txns: len(c.txns), K: h.K, Atomic: c.atomic(), Correctable: !c.cyclic}
	if c.cyclic {
		rep.Witness = c.witness()
	}
	return rep, nil
}

// newChecker replays h and drives its coherent closure to the fixpoint.
func newChecker(h *History) (*checker, error) {
	if err := h.Validate(); err != nil {
		return nil, err
	}
	exec, descs, err := h.Committed()
	if err != nil {
		return nil, err
	}
	c := &checker{exec: exec, k: h.K, txnIdx: make(map[model.TxnID]int)}
	c.index(descs)
	c.classify(h.Levels)
	c.baseEdges()
	c.closure()
	return c, nil
}

func (c *checker) index(descs map[model.TxnID]*breakpoint.Description) {
	for _, s := range c.exec {
		if _, ok := c.txnIdx[s.Txn]; !ok {
			c.txnIdx[s.Txn] = len(c.txns)
			c.txns = append(c.txns, s.Txn)
			c.descs = append(c.descs, descs[s.Txn])
		}
	}
	c.stepsOf = make([][]int, len(c.txns))
	c.txnOf = make([]int, len(c.exec))
	c.seqOf = make([]int, len(c.exec))
	for g, s := range c.exec {
		ti := c.txnIdx[s.Txn]
		c.txnOf[g] = ti
		c.stepsOf[ti] = append(c.stepsOf[ti], g)
		c.seqOf[g] = s.Seq
	}
}

// classify gives every transaction its row of class ids and every class its
// members, from one read of the level labels.
func (c *checker) classify(levels map[model.TxnID][]string) {
	type key struct {
		parent int32
		label  string
	}
	ids := make(map[key]int32)
	c.class = make([]int32, len(c.txns)*c.k)
	next := int32(1)
	for ti, t := range c.txns {
		row := c.row(ti)
		for lv := 2; lv < c.k; lv++ {
			kk := key{row[lv-2], levels[t][lv-2]}
			id, ok := ids[kk]
			if !ok {
				id, next = next, next+1
				ids[kk] = id
			}
			row[lv-1] = id
		}
		row[c.k-1], next = next, next+1
	}
	size := make([]int, next)
	for _, id := range c.class {
		size[id]++
	}
	c.members = make([][]int, len(size))
	slab := make([]int, len(c.class))
	for id, n := range size {
		c.members[id], slab = slab[:0:n], slab[n:]
	}
	for i, id := range c.class {
		c.members[id] = append(c.members[id], i/c.k)
		if lv := i%c.k + 1; size[id] >= 2 && lv > c.maxLv {
			c.maxLv = lv
		}
	}
	c.classSteps = make([]bitset, len(size))
	c.masks = make([]bitset, len(size))
}

// row returns transaction ti's class ids, level 1 first.
func (c *checker) row(ti int) []int32 { return c.class[ti*c.k : ti*c.k+c.k] }

// level returns level(txns[a], txns[b]): k when a == b.
func (c *checker) level(a, b int) int {
	ra, rb := c.row(a), c.row(b)
	lv := 0
	for lv < c.k && ra[lv] == rb[lv] {
		lv++
	}
	return lv
}

// baseEdges seeds G with the generators of the dependency order ≤e:
// program-order consecutive steps and consecutive accesses to the same
// entity (cross-transaction; within a transaction the program chain already
// implies them). A step has at most one successor of each kind, so no edge
// repeats and every step has room for two.
func (c *checker) baseEdges() {
	n := len(c.exec)
	c.edges = make([]edge, 0, 2*n)
	c.out = make([][]int, n)
	slab := make([]int, 2*n)
	for g := range c.out {
		c.out[g] = slab[2*g : 2*g : 2*g+2]
	}
	for _, idxs := range c.stepsOf {
		for i := 1; i < len(idxs); i++ {
			c.addEdge(edge{from: idxs[i-1], to: idxs[i], kind: EdgeProgram})
		}
	}
	lastEnt := make(map[model.EntityID]int)
	for g, s := range c.exec {
		if j, ok := lastEnt[s.Entity]; ok && c.txnOf[j] != c.txnOf[g] {
			c.addEdge(edge{from: j, to: g, kind: EdgeConflict, entity: s.Entity})
		}
		lastEnt[s.Entity] = g
	}
}

func (c *checker) addEdge(e edge) {
	c.out[e.from] = append(c.out[e.from], len(c.edges))
	c.edges = append(c.edges, e)
}

// closure computes the coherent closure R as per-step reachability
// bitsets, by chaotic iteration to the least fixpoint of
//
//	reach[v] ⊇ {w} ∪ reach[w]                    for base edges v→w
//	reach[v] ⊇ (∪_{a ∈ U\{v}} reach[a]) ∩ M_lv   for v last in unit U
//
// where the second line is coherence rule (b): if level(t,t′)=i and
// α <t α′ within one Bt(i) unit, then (α,β) ∈ R forces (α′,β) ∈ R, and
// M_lv masks to the steps of transactions at level lv from t. Restricting
// the rule to the unit's LAST step derives the same closure as firing it
// for every later step s of the unit — (s,β) follows from the program
// chain s ⇝ last plus (last,β) by transitivity — while keeping derived
// work O(units·steps) instead of materializing O(txns·steps) edges.
//
// Base edges point forward in recorded order by construction, so the base
// graph is a DAG and a descending-index sweep converges base flows in one
// pass; derived flows (whose targets may precede the unit's last step)
// converge over repeated sweeps. The fixpoint stops early the moment a
// step reaches itself — the history is then uncorrectable and witness()
// extracts a concrete cycle.
func (c *checker) closure() {
	nSteps := len(c.exec)
	words := len(newBitset(nSteps))
	slab := make([]uint64, nSteps*words)
	c.reach = make([]bitset, nSteps)
	for i := range c.reach {
		c.reach[i] = slab[i*words : (i+1)*words : (i+1)*words]
	}
	c.indexUnits()
	c.tmp = newBitset(nSteps)
	c.txnStamp = make([]int, len(c.txns))
	scratch := newBitset(nSteps)
	for {
		changed := false
		for v := nSteps - 1; v >= 0; v-- {
			copy(scratch, c.reach[v])
			for _, ei := range c.out[v] {
				w := c.edges[ei].to
				scratch.set(w)
				scratch.or(c.reach[w])
			}
			c.ruleInto(v, scratch)
			for i, w := range scratch {
				if w != c.reach[v][i] {
					c.reach[v][i] = w
					changed = true
				}
			}
			if c.reach[v].has(v) {
				c.cyclic = true
				return
			}
		}
		if !changed {
			return
		}
	}
}

// indexUnits precomputes, per level, the global index of the last step of
// every step's unit at that level, in one backward pass per transaction.
// No pair of transactions has level 0, so level 0 has no units to index.
func (c *checker) indexUnits() {
	c.unitLast = make([][]int32, c.maxLv+1)
	for lv := 1; lv <= c.maxLv; lv++ {
		ul := make([]int32, len(c.exec))
		for ti, idxs := range c.stepsOf {
			last := idxs[len(idxs)-1]
			for p := len(idxs); p >= 1; p-- {
				if p < len(idxs) && c.descs[ti].IsCut(p, lv) {
					last = idxs[p-1]
				}
				ul[idxs[p-1]] = int32(last)
			}
		}
		c.unitLast[lv] = ul
	}
}

// ruleInto ORs the coherence-rule contribution for step v into acc: for
// each level lv at which v closes a non-singleton unit, the derived
// targets T = reach[first member] ∩ M_lv (the first member's reach
// subsumes every later member's via the program chain), and — because R
// is transitively closed — everything those targets reach in turn.
// Absorbing reach[b] once per target TRANSACTION suffices: within one
// transaction the earliest target's reach subsumes the later ones'.
func (c *checker) ruleInto(v int, acc bitset) {
	tv := c.txnOf[v]
	d := c.descs[tv]
	for lv := 1; lv <= c.maxLv; lv++ {
		if c.unitLast[lv][v] != int32(v) {
			continue
		}
		start := d.SegmentStart(c.seqOf[v], lv)
		if start == c.seqOf[v] {
			continue // singleton unit: nothing to derive
		}
		first := c.stepsOf[tv][start-1]
		mask := c.levelMask(tv, lv)
		for i := range c.tmp {
			c.tmp[i] = c.reach[first][i] & mask[i]
			acc[i] |= c.tmp[i]
		}
		c.stampGen++
		c.tmp.forEach(func(b int) {
			if tb := c.txnOf[b]; c.txnStamp[tb] != c.stampGen {
				c.txnStamp[tb] = c.stampGen
				acc.or(c.reach[b])
			}
		})
	}
}

// levelMask returns the set of steps of transactions u with
// level(txns[ti], u) == lv: ti's π(lv) class minus its π(lv+1) class (at
// lv = k-1, minus ti itself). Transactions sharing their π(lv+1) class
// share the mask.
func (c *checker) levelMask(ti, lv int) bitset {
	row := c.row(ti)
	sub := row[lv]
	if m := c.masks[sub]; m != nil {
		return m
	}
	m := newBitset(len(c.exec))
	copy(m, c.stepSet(row[lv-1]))
	for _, u := range c.members[sub] {
		for _, g := range c.stepsOf[u] {
			m[g>>6] &^= 1 << uint(g&63)
		}
	}
	c.masks[sub] = m
	return m
}

// stepSet returns (building lazily) the steps of class id's transactions.
func (c *checker) stepSet(id int32) bitset {
	if s := c.classSteps[id]; s != nil {
		return s
	}
	s := newBitset(len(c.exec))
	for _, u := range c.members[id] {
		for _, g := range c.stepsOf[u] {
			s.set(g)
		}
	}
	c.classSteps[id] = s
	return s
}

// atomic decides whether the recorded total order is itself coherent: every
// interruption of a transaction t by a step of t′ must fall on a boundary
// of Bt(level(t,t′)). Only open transactions — started, not finished — can
// be interrupted, so only they are visited.
func (c *checker) atomic() bool {
	placed := make([]int, len(c.txns))
	at := make([]int, len(c.txns)) // txn index -> its position in open
	var open []int
	for g := range c.exec {
		tb := c.txnOf[g]
		for _, ti := range open {
			if p := placed[ti]; ti != tb && c.descs[ti].SameSegment(p, p+1, c.level(ti, tb)) {
				return false
			}
		}
		placed[tb]++
		switch p := placed[tb]; {
		case p == len(c.stepsOf[tb]) && p > 1:
			last := open[len(open)-1]
			open[at[tb]], at[last] = last, at[tb]
			open = open[:len(open)-1]
		case p == 1 && p < len(c.stepsOf[tb]):
			at[tb] = len(open)
			open = append(open, tb)
		}
	}
	return true
}

// forEachSucc enumerates every direct G-edge out of v: the materialized
// base edges, then the coherence-derived edges reconstructed from the
// closure — for each level at which v closes a non-singleton unit, an edge
// to every level-lv step b some earlier unit member a reaches, with (a,b)
// as the premise pair. Each derived edge produced here is a genuine edge
// of the full generator graph: a < v in the unit and (a,b) ∈ R, so the
// rule fires for v.
func (c *checker) forEachSucc(v int, yield func(edge)) {
	for _, ei := range c.out[v] {
		yield(c.edges[ei])
	}
	tv := c.txnOf[v]
	d := c.descs[tv]
	seen, diff := c.seen, c.diff
	for lv := 1; lv <= c.maxLv; lv++ {
		if c.unitLast[lv][v] != int32(v) {
			continue
		}
		start := d.SegmentStart(c.seqOf[v], lv)
		if start == c.seqOf[v] {
			continue
		}
		mask := c.levelMask(tv, lv)
		for i := range seen {
			seen[i] = 0
		}
		for s := start; s < c.seqOf[v]; s++ {
			a := c.stepsOf[tv][s-1]
			for i := range diff {
				diff[i] = c.reach[a][i] & mask[i] &^ seen[i]
				seen[i] |= diff[i]
			}
			diff.forEach(func(b int) {
				yield(edge{from: v, to: b, kind: EdgeCoherence, level: lv, premise: [2]int{a, b}})
			})
		}
	}
}

// witness extracts a concrete cycle of G edges: a shortest-cycle BFS from
// every step the (possibly early-stopped) closure flagged as reaching
// itself, over base edges plus the implicit coherence edges enumerated by
// forEachSucc. Violating histories are small in practice, so the
// quadratic search and the per-edge provenance are worth it.
func (c *checker) witness() *Witness {
	n := len(c.exec)
	bestLen := n + 1
	var bestPath []edge // in order around the cycle
	parentEdge := make([]edge, n)
	parentOK := make([]bool, n)
	depth := make([]int, n)
	visited := make([]bool, n)
	c.seen, c.diff = newBitset(n), newBitset(n)
	q := make([]int, 0, n)
	for start := 0; start < n; start++ {
		if !c.reach[start].has(start) {
			continue
		}
		// BFS from start; stop when an edge returns to start.
		for i := range visited {
			visited[i] = false
			parentOK[i] = false
			depth[i] = 0
		}
		q = append(q[:0], start)
		visited[start] = true
		var closing edge
		closed := false
		for head := 0; head < len(q) && !closed; head++ {
			v := q[head]
			if depth[v]+1 >= bestLen {
				continue
			}
			c.forEachSucc(v, func(e edge) {
				if closed {
					return
				}
				if e.to == start {
					closing = e
					closed = true
					return
				}
				if !visited[e.to] {
					visited[e.to] = true
					parentEdge[e.to] = e
					parentOK[e.to] = true
					depth[e.to] = depth[v] + 1
					q = append(q, e.to)
				}
			})
		}
		if !closed {
			continue
		}
		path := []edge{closing}
		for v := closing.from; v != start && parentOK[v]; v = parentEdge[v].from {
			path = append(path, parentEdge[v])
		}
		if len(path) < bestLen {
			bestLen = len(path)
			// Reverse into forward order around the cycle.
			bestPath = make([]edge, len(path))
			for i, e := range path {
				bestPath[len(path)-1-i] = e
			}
		}
	}
	if bestPath == nil {
		return nil // unreachable when closure flagged a cycle; defensive
	}
	w := &Witness{}
	for _, e := range bestPath {
		we := WitnessEdge{
			From: c.exec[e.from].ID(),
			To:   c.exec[e.to].ID(),
			Kind: e.kind,
		}
		switch e.kind {
		case EdgeConflict:
			we.Entity = e.entity
		case EdgeCoherence:
			we.Level = e.level
			we.Premise = [2]model.StepID{c.exec[e.premise[0]].ID(), c.exec[e.premise[1]].ID()}
			d := c.descs[c.txnOf[e.from]]
			seq := c.seqOf[e.premise[0]]
			we.Unit = [2]int{d.SegmentStart(seq, e.level), d.SegmentEnd(seq, e.level)}
		}
		w.Edges = append(w.Edges, we)
	}
	return w
}

// bitset is a fixed-capacity set of small non-negative integers; a local
// copy so the checker shares no code with internal/coherent's closure.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) has(i int) bool { return b[i>>6]&(1<<uint(i&63)) != 0 }

func (b bitset) set(i int) { b[i>>6] |= 1 << uint(i&63) }

func (b bitset) or(other bitset) {
	for i := range b {
		b[i] |= other[i]
	}
}

func (b bitset) forEach(f func(i int)) {
	for wi, w := range b {
		for w != 0 {
			f(wi<<6 + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}

// Summary renders a short human-readable verdict line.
func (r *Report) Summary() string {
	verdict := "CORRECTABLE"
	if r.Atomic {
		verdict = "ATOMIC"
	} else if !r.Correctable {
		verdict = "VIOLATION"
	}
	return fmt.Sprintf("%s: %d steps, %d txns, k=%d", verdict, r.Steps, r.Txns, r.K)
}

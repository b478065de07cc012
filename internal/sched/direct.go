package sched

import (
	"mla/internal/model"
	"mla/internal/nest"
)

// directPreventer is the Preventer's ablation, built by New as
// KindPreventDirect ("prevent-direct"): the Section 6 delay rule applied to
// direct conflicts only. A step of t′ on x waits for each transaction t
// that accessed x until t has crossed a level(t,t′) breakpoint after its
// latest access there, or finished; there is no coherent closure. It misses
// the predecessors that transitivity and coherence rule (b) bring in, so it
// is unsound — E10 shows it admitting non-correctable executions — and it is
// exactly the naive nested-transaction specialization the paper's Section 7
// leaves open.
type directPreventer struct {
	nest       *nest.Nest
	prio       map[model.TxnID]int64
	txns       map[model.TxnID]*directTxn
	lastAccess map[model.EntityID]map[model.TxnID]int // entity → accessor → its latest seq there
	waitFor    *waitGraph
	stats      Stats
}

type directTxn struct {
	bound    []int // bound[lv]: latest boundary position with coarseness <= lv
	finished bool
}

func newDirectPreventer(n *nest.Nest) *directPreventer {
	return &directPreventer{
		nest:       n,
		prio:       make(map[model.TxnID]int64),
		txns:       make(map[model.TxnID]*directTxn),
		lastAccess: make(map[model.EntityID]map[model.TxnID]int),
		waitFor:    newWaitGraph(),
	}
}

// Name implements Control.
func (*directPreventer) Name() string { return "prevent-direct" }

// Begin implements Control.
func (p *directPreventer) Begin(t model.TxnID, prio int64) {
	p.prio[t] = prio
	p.txns[t] = &directTxn{bound: make([]int, p.nest.K()+1)}
}

// closed reports whether u's step at seq is closed off for a level-lv
// observer: u is untracked or finished, or a B(lv) boundary follows the step.
func (p *directPreventer) closed(u model.TxnID, seq, lv int) bool {
	d := p.txns[u]
	return d == nil || d.finished || d.bound[lv] >= seq
}

// Request implements Control: the delay rule over x's accessors.
func (p *directPreventer) Request(t model.TxnID, _ int, x model.EntityID) Decision {
	var waits map[model.TxnID]bool
	for u, s := range p.lastAccess[x] {
		if u != t && !p.closed(u, s, p.nest.Level(u, t)) {
			if waits == nil {
				waits = make(map[model.TxnID]bool)
			}
			waits[u] = true
		}
	}
	if waits == nil {
		p.waitFor.clear(t)
		return grant
	}
	return p.waitFor.block(t, waits, p.prio, &p.stats)
}

// Performed implements Control: the step becomes x's access by t, and its
// breakpoint (if any) closes t's segments at every level it bounds.
func (p *directPreventer) Performed(t model.TxnID, seq int, x model.EntityID, cut int) {
	if d := p.txns[t]; cut > 0 {
		for lv := cut; lv < len(d.bound); lv++ {
			d.bound[lv] = seq
		}
	}
	if p.lastAccess[x] == nil {
		p.lastAccess[x] = make(map[model.TxnID]int)
	}
	p.lastAccess[x][t] = seq
}

// Finished implements Control.
func (p *directPreventer) Finished(t model.TxnID) {
	if d := p.txns[t]; d != nil {
		d.finished = true
	}
	p.waitFor.drop(t)
}

// Retired implements the Retirer capability: a committed transaction blocks
// nobody, so its record goes.
func (p *directPreventer) Retired(t model.TxnID) {
	delete(p.prio, t)
	delete(p.txns, t)
	p.stats.Sealed++
}

// Aborted implements Control: the victims' records and accesses go.
func (p *directPreventer) Aborted(victims []model.TxnID) {
	for _, t := range victims {
		delete(p.txns, t)
		p.waitFor.drop(t)
	}
	for x, m := range p.lastAccess {
		for _, t := range victims {
			delete(m, t)
		}
		if len(m) == 0 {
			delete(p.lastAccess, x)
		}
	}
}

// AbortedTo implements the simulator's partial-recovery hook: t was rolled
// back to seq = keep and resumes; its boundaries and accesses are clamped
// to the kept prefix.
func (p *directPreventer) AbortedTo(t model.TxnID, keep int) {
	p.waitFor.drop(t)
	if d := p.txns[t]; d != nil {
		for lv := range d.bound {
			d.bound[lv] = min(d.bound[lv], keep)
		}
	}
	for x, m := range p.lastAccess {
		if s, ok := m[t]; ok && s > keep {
			if keep == 0 {
				delete(m, t)
			} else {
				m[t] = keep
			}
		}
		if len(m) == 0 {
			delete(p.lastAccess, x)
		}
	}
}

// DeadlineAborted implements the DeadlineAborter capability.
func (*directPreventer) DeadlineAborted(model.TxnID) {}

// Stats implements Control.
func (p *directPreventer) Stats() *Stats { return &p.stats }

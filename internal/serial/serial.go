// Package serial implements classical conflict serializability [EGLT, BG]
// as an independent baseline and cross-check for the k=2 degenerate case of
// multilevel atomicity. In the paper's model every step is an atomic
// read-modify-write of one entity, so any two steps on the same entity
// conflict and conflict equivalence coincides with the paper's execution
// equivalence (identical dependency relation ≤e).
package serial

import (
	"sort"

	"mla/internal/model"
)

// Graph is the serialization graph of an execution: nodes are transactions;
// there is an edge t → u when some step of t precedes a step of u on a
// common entity.
type Graph struct {
	txns []model.TxnID
	idx  map[model.TxnID]int
	adj  [][]bool
}

// BuildGraph constructs the serialization graph of e.
func BuildGraph(e model.Execution) *Graph {
	g := &Graph{idx: make(map[model.TxnID]int)}
	for _, t := range e.Txns() {
		g.idx[t] = len(g.txns)
		g.txns = append(g.txns, t)
	}
	n := len(g.txns)
	g.adj = make([][]bool, n)
	for i := range g.adj {
		g.adj[i] = make([]bool, n)
	}
	for _, idxs := range e.ByEntity() {
		for a := 0; a < len(idxs); a++ {
			for b := a + 1; b < len(idxs); b++ {
				ta, tb := g.idx[e[idxs[a]].Txn], g.idx[e[idxs[b]].Txn]
				if ta != tb {
					g.adj[ta][tb] = true
				}
			}
		}
	}
	return g
}

// TopoOrder returns a topological order of the transactions, or ok=false if
// the graph has a cycle. Deterministic: among ready nodes the smallest
// transaction ID is chosen first.
func (g *Graph) TopoOrder() ([]model.TxnID, bool) {
	n := len(g.txns)
	indeg := make([]int, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if g.adj[i][j] {
				indeg[j]++
			}
		}
	}
	var ready []int
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			ready = append(ready, i)
		}
	}
	var out []model.TxnID
	for len(ready) > 0 {
		sort.Slice(ready, func(a, b int) bool { return g.txns[ready[a]] < g.txns[ready[b]] })
		v := ready[0]
		ready = ready[1:]
		out = append(out, g.txns[v])
		for j := 0; j < n; j++ {
			if g.adj[v][j] {
				indeg[j]--
				if indeg[j] == 0 {
					ready = append(ready, j)
				}
			}
		}
	}
	return out, len(out) == n
}

// Serializable reports whether e is conflict serializable: its
// serialization graph is acyclic.
func Serializable(e model.Execution) bool {
	_, ok := BuildGraph(e).TopoOrder()
	return ok
}

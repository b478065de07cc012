package sched

import "mla/internal/model"

// waitGraph is the waits-for graph shared by the blocking controls
// (Preventer, its direct-only ablation, TwoPhase): an edge t → u means t's
// pending request cannot proceed until u changes state. A cycle is a
// deadlock.
type waitGraph struct {
	edges map[model.TxnID]map[model.TxnID]bool
}

func newWaitGraph() *waitGraph {
	return &waitGraph{edges: make(map[model.TxnID]map[model.TxnID]bool)}
}

// block is the blocking controls' answer to a request of t that must wait
// for blockers (which the graph then owns): when the wait closes a waits-for
// cycle, the cycle's youngest member by prio is rolled back (an untracked
// one counts as oldest), otherwise t waits. It counts the wound or the wait
// in stats.
func (g *waitGraph) block(t model.TxnID, blockers map[model.TxnID]bool, prio map[model.TxnID]int64, stats *Stats) Decision {
	g.edges[t] = blockers
	if cycle := g.cycleThrough(t); len(cycle) > 0 {
		victim := Youngest(cycle, func(u model.TxnID) int64 {
			if pr, ok := prio[u]; ok {
				return pr
			}
			return -1
		})
		g.clear(t)
		if victim != t {
			stats.Wounds++
		}
		return Decision{Kind: Abort, Victims: []model.TxnID{victim}}
	}
	stats.Waits++
	return wait
}

// clear removes t's outgoing edges.
func (g *waitGraph) clear(t model.TxnID) { delete(g.edges, t) }

// drop removes t entirely (edges in both directions).
func (g *waitGraph) drop(t model.TxnID) {
	delete(g.edges, t)
	for _, m := range g.edges {
		delete(m, t)
	}
}

// cycleThrough returns the members of a waits-for cycle reachable from t,
// or nil.
func (g *waitGraph) cycleThrough(t model.TxnID) []model.TxnID {
	return Cycle(t, func(u model.TxnID) map[model.TxnID]bool { return g.edges[u] })
}

// Cycle returns the members of a waits-for cycle reachable from t, or nil;
// edges(u) is the set u waits for. It is the one deadlock DFS: the blocking
// controls run it over their whole graph, the message-driven ones
// (internal/cluster) over the edges recorded at a single node. The graph is
// bounded by the number of active transactions; successor order is sorted
// for determinism.
func Cycle(t model.TxnID, edges func(model.TxnID) map[model.TxnID]bool) []model.TxnID {
	var path []model.TxnID
	onPath := make(map[model.TxnID]bool)
	visited := make(map[model.TxnID]bool)
	var dfs func(u model.TxnID) []model.TxnID
	dfs = func(u model.TxnID) []model.TxnID {
		if onPath[u] {
			for i, w := range path {
				if w == u {
					return append([]model.TxnID(nil), path[i:]...)
				}
			}
			return path
		}
		if visited[u] {
			return nil
		}
		visited[u] = true
		onPath[u] = true
		path = append(path, u)
		for _, v := range model.SortedKeys(edges(u)) {
			if c := dfs(v); c != nil {
				return c
			}
		}
		onPath[u] = false
		path = path[:len(path)-1]
		return nil
	}
	return dfs(t)
}

// Youngest returns the member with the largest priority according to prio,
// breaking ties by larger ID.
func Youngest(cycle []model.TxnID, prio func(model.TxnID) int64) model.TxnID {
	victim := cycle[0]
	best := prio(victim)
	for _, u := range cycle[1:] {
		if pr := prio(u); Younger(u, pr, victim, best) {
			victim, best = u, pr
		}
	}
	return victim
}

// Younger is the one victim rule for every deadlock cycle, local or
// probe-chased: u (priority pu) is younger than v (priority pv) when its
// priority value is larger, ties broken toward the larger ID.
func Younger(u model.TxnID, pu int64, v model.TxnID, pv int64) bool {
	return pu > pv || (pu == pv && u > v)
}

// Package history is the black-box side of the checker: a first-class
// execution-history format (steps, aborts, and commit groups as they
// happened, plus the declared level matrix and recorded breakpoint
// coarsenesses) and an independent decision procedure for multilevel
// atomicity over it.
//
// A history is the one execution format of the repository, and a raw event
// log rather than a surviving execution with a materialized specification:
// it contains the steps of aborted attempts, the aborts that discarded
// them, and the commit events that promoted the rest. The checker replays
// the log to reconstruct the committed execution and the per-transaction
// breakpoint descriptions, then decides MLA-correctness from scratch —
// sharing only the data types (model, nest, breakpoint) with the scheduler
// and the Theorem 2 machinery it cross-examines, none of the logic.
//
// Histories are recorded as they happen by a Recorder (the engine's
// Observer shape), in memory for a batch engine run or appended to the
// crash-safe JSONL spool a resident server writes, or derived from a
// simulator result (FromExecution). Execution hands the replayed result to
// the white-box analysis, so both deciders can judge any file.
package history

import (
	"encoding/json"
	"fmt"
	"io"

	"mla/internal/breakpoint"
	"mla/internal/model"
	"mla/internal/nest"
)

// Format is the native on-disk format identifier.
const Format = "mla-history/v1"

// Event kinds.
const (
	KindStep   = "step"
	KindAbort  = "abort"
	KindCommit = "commit"
)

// Event is one entry of the log. The array order of History.Events IS the
// total order of the run; TS is informational (performance timestamps for
// traces that have them, a logical counter otherwise).
type Event struct {
	TS   int64  `json:"ts,omitempty"`
	Kind string `json:"kind"`

	// Step fields: the Seq-th step (1-based) of Txn accessed Entity; Cut is
	// the coarseness of the breakpoint boundary after the step (0 = no
	// boundary recorded, i.e. the unit continues or the transaction ended).
	Txn    model.TxnID    `json:"txn,omitempty"`
	Seq    int            `json:"seq,omitempty"`
	Entity model.EntityID `json:"entity,omitempty"`
	Label  string         `json:"label,omitempty"`
	Cut    int            `json:"cut,omitempty"`

	// Abort fields: Txn is the victim; Kept is the number of prefix steps
	// that survive a partial rollback (0 = full abort).
	Kept int `json:"kept,omitempty"`

	// Commit fields: the members of the commit group.
	Txns []model.TxnID `json:"txns,omitempty"`
}

// History is the native format: the level matrix (as per-transaction
// intermediate nest labels, exactly k-2 each) plus the event log.
type History struct {
	Format string                   `json:"format"`
	K      int                      `json:"k"`
	Levels map[model.TxnID][]string `json:"levels"`
	Events []Event                  `json:"events"`
}

// Encode writes the history as indented JSON.
func (h *History) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(h)
}

// Decode parses and validates a native history. Every malformed input
// returns an error — the checker must never panic on untrusted files.
func Decode(r io.Reader) (*History, error) {
	var h History
	if err := json.NewDecoder(r).Decode(&h); err != nil {
		return nil, fmt.Errorf("history: %w", err)
	}
	if err := h.Validate(); err != nil {
		return nil, err
	}
	return &h, nil
}

// Validate checks structural consistency: the format tag, k ≥ 2, label
// paths of length k-2, known event kinds, cut coarsenesses in {0} ∪ [2,k],
// and every event transaction present in the level map.
func (h *History) Validate() error {
	if h.Format != Format {
		return fmt.Errorf("history: format %q, want %q", h.Format, Format)
	}
	if h.K < 2 {
		return fmt.Errorf("history: k=%d out of range (want >= 2)", h.K)
	}
	for t, path := range h.Levels {
		if len(path) != h.K-2 {
			return fmt.Errorf("history: %s has %d level labels, want %d", t, len(path), h.K-2)
		}
	}
	known := func(t model.TxnID) error {
		if _, ok := h.Levels[t]; !ok {
			return fmt.Errorf("history: transaction %s missing from the level matrix", t)
		}
		return nil
	}
	for i, ev := range h.Events {
		switch ev.Kind {
		case KindStep:
			if err := known(ev.Txn); err != nil {
				return fmt.Errorf("event %d: %w", i, err)
			}
			if ev.Seq < 1 {
				return fmt.Errorf("history: event %d: step seq %d out of range", i, ev.Seq)
			}
			if ev.Cut != 0 && (ev.Cut < 2 || ev.Cut > h.K) {
				return fmt.Errorf("history: event %d: cut coarseness %d outside [2,%d]", i, ev.Cut, h.K)
			}
		case KindAbort:
			if err := known(ev.Txn); err != nil {
				return fmt.Errorf("event %d: %w", i, err)
			}
			if ev.Kept < 0 {
				return fmt.Errorf("history: event %d: negative kept prefix %d", i, ev.Kept)
			}
		case KindCommit:
			for _, t := range ev.Txns {
				if err := known(t); err != nil {
					return fmt.Errorf("event %d: %w", i, err)
				}
			}
		default:
			return fmt.Errorf("history: event %d: unknown kind %q", i, ev.Kind)
		}
	}
	return nil
}

// Nest reconstructs the k-nest from the level matrix.
func (h *History) Nest() (*nest.Nest, error) {
	n := nest.New(h.K)
	txns := make([]model.TxnID, 0, len(h.Levels))
	for t := range h.Levels {
		txns = append(txns, t)
	}
	model.SortTxnIDs(txns)
	for _, t := range txns {
		n.Add(t, h.Levels[t]...)
	}
	return n, nil
}

// Committed replays the event log and returns the committed execution (the
// steps of each transaction's final committed attempt, in performance
// order) together with the breakpoint description recorded for each
// committed transaction.
//
// Replay rules: a step extends the transaction's pending attempt (a step
// with seq 1 over a nonempty pending attempt is an implicit restart — a
// recorder that missed the abort); an abort discards the pending attempt
// beyond the kept prefix (cascaded victims and full aborts have Kept 0); a
// commit promotes the members' pending steps. A step for an
// already-committed transaction demotes it back to pending (a torn commit
// re-executed after crash recovery: the last commit wins).
func (h *History) Committed() (model.Execution, map[model.TxnID]*breakpoint.Description, error) {
	type attempts struct {
		txn       model.TxnID
		pending   []int // event indices of the pending attempt
		committed []int // event indices of the committed attempt
		done      bool  // committed holds the last commit
	}
	var logs []attempts
	ix := make(map[model.TxnID]int)
	log := func(t model.TxnID) *attempts {
		i, ok := ix[t]
		if !ok {
			i = len(logs)
			ix[t] = i
			logs = append(logs, attempts{txn: t})
		}
		return &logs[i]
	}
	for i, ev := range h.Events {
		switch ev.Kind {
		case KindStep:
			a := log(ev.Txn)
			if a.done {
				a.done, a.committed = false, nil // re-execution after a torn commit
			}
			if ev.Seq == 1 && len(a.pending) > 0 {
				a.pending = a.pending[:0] // implicit restart
			}
			if ev.Seq != len(a.pending)+1 {
				return nil, nil, fmt.Errorf("history: event %d: %s step seq %d, want %d (gap in the attempt)",
					i, ev.Txn, ev.Seq, len(a.pending)+1)
			}
			a.pending = append(a.pending, i)
		case KindAbort:
			a := log(ev.Txn)
			if ev.Kept > len(a.pending) {
				return nil, nil, fmt.Errorf("history: event %d: abort keeps %d steps but %s performed %d",
					i, ev.Kept, ev.Txn, len(a.pending))
			}
			a.pending = a.pending[:ev.Kept]
		case KindCommit:
			for _, t := range ev.Txns {
				a := log(t)
				if a.done {
					return nil, nil, fmt.Errorf("history: event %d: %s committed twice", i, t)
				}
				a.done, a.committed, a.pending = true, a.pending, nil
			}
		}
	}
	keep := make([]bool, len(h.Events))
	n := 0
	descs := make(map[model.TxnID]*breakpoint.Description)
	for _, a := range logs {
		if !a.done || len(a.committed) == 0 {
			continue
		}
		d := breakpoint.NewDescription(h.K, len(a.committed))
		for p, i := range a.committed {
			keep[i] = true
			if c := h.Events[i].Cut; p+1 < len(a.committed) && c >= 2 && c <= h.K {
				d.SetCut(p+1, c)
			}
		}
		descs[a.txn] = d
		n += len(a.committed)
	}
	exec := make(model.Execution, 0, n)
	for i, ev := range h.Events {
		if keep[i] {
			exec = append(exec, model.Step{Txn: ev.Txn, Seq: ev.Seq, Entity: ev.Entity, Label: ev.Label})
		}
	}
	return exec, descs, nil
}

// Execution rebuilds what the white-box Theorem 2 analysis takes — the
// committed execution, the k-nest, and a breakpoint specification that
// replays the recorded descriptions by prefix length — so
// coherent.CheckExecution can run on exactly the object Check judges.
func (h *History) Execution() (model.Execution, *nest.Nest, breakpoint.Spec, error) {
	exec, descs, err := h.Committed()
	if err != nil {
		return nil, nil, nil, err
	}
	n, err := h.Nest()
	if err != nil {
		return nil, nil, nil, err
	}
	spec := breakpoint.Func{Levels: h.K, Fn: func(t model.TxnID, prefix []model.Step) int {
		if d, p := descs[t], len(prefix); d != nil && p >= 1 && p < d.Len() {
			return d.Coarseness(p)
		}
		return h.K
	}}
	return exec, n, spec, nil
}

// FromExecution derives the history of an already-surviving execution: one
// step event per step (with the coarseness the specification assigns to
// the boundary after it) and a single commit of every transaction. It is
// how deterministic simulator results enter the checker — the simulator's
// Result.Exec is the faithful performance order of the committed steps.
func FromExecution(e model.Execution, n *nest.Nest, spec breakpoint.Spec) (*History, error) {
	if n.K() != spec.K() {
		return nil, fmt.Errorf("history: nest k=%d but spec k=%d", n.K(), spec.K())
	}
	perTxn := make(map[model.TxnID][]model.Step)
	for _, s := range e {
		perTxn[s.Txn] = append(perTxn[s.Txn], s)
	}
	txns := make([]model.TxnID, 0, len(perTxn))
	for t := range perTxn {
		if !n.Has(t) {
			return nil, fmt.Errorf("history: transaction %s missing from nest", t)
		}
		txns = append(txns, t)
	}
	model.SortTxnIDs(txns)
	descs := make(map[model.TxnID]*breakpoint.Description, len(txns))
	for _, t := range txns {
		descs[t] = breakpoint.Describe(spec, t, perTxn[t])
	}
	h := &History{Format: Format, K: n.K(), Levels: LevelPaths(n, txns)}
	for i, s := range e {
		cut := 0
		if d := descs[s.Txn]; s.Seq < d.Len() {
			cut = d.Coarseness(s.Seq)
		}
		h.Events = append(h.Events, Event{
			TS: int64(i), Kind: KindStep,
			Txn: s.Txn, Seq: s.Seq, Entity: s.Entity, Label: s.Label, Cut: cut,
		})
	}
	if len(txns) > 0 {
		h.Events = append(h.Events, Event{TS: int64(len(e)), Kind: KindCommit, Txns: txns})
	}
	return h, nil
}

// LevelPaths recovers intermediate nest labels (levels 2..k-1) for the
// given transactions by probing class membership level by level — the nest
// API does not expose raw paths, so stable labels are synthesized from
// class indices. Two transactions get equal labels at a level exactly when
// they share that level's class, which is all the level matrix encodes.
// txns may repeat a transaction.
func LevelPaths(n *nest.Nest, txns []model.TxnID) map[model.TxnID][]string {
	out := make(map[model.TxnID][]string)
	for _, t := range txns {
		if out[t] == nil {
			out[t] = make([]string, 0, n.K()-2)
		}
	}
	for lv := 2; lv < n.K(); lv++ {
		for ci, class := range n.Classes(lv) {
			for _, t := range class {
				if path, ok := out[t]; ok {
					out[t] = append(path, fmt.Sprintf("L%d-C%d", lv, ci))
				}
			}
		}
	}
	return out
}

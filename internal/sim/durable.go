package sim

import (
	"fmt"
	"sort"

	"mla/internal/breakpoint"
	"mla/internal/model"
	"mla/internal/sched"
	"mla/internal/wal"
)

// Store is the backend the simulator writes through: the volatile
// storage.Store by default, or a WAL-backed wal.DB when durability and
// crash injection are wanted.
type Store interface {
	Perform(t model.TxnID, seq int, x model.EntityID, f func(model.Value) (model.Value, string)) model.Step
	AbortSuffix(keep map[model.TxnID]int) error
	CommitGroup(ids []model.TxnID)
	Values() map[model.EntityID]model.Value
}

// durableStore adapts wal.DB to the Store interface (wal's Perform returns
// an error only when stepping a committed transaction, which the simulator
// never does; a violation is a simulator bug and panics).
type durableStore struct{ db *wal.DB }

func (d durableStore) Perform(t model.TxnID, seq int, x model.EntityID, f func(model.Value) (model.Value, string)) model.Step {
	step, err := d.db.Perform(t, seq, x, f)
	if err != nil {
		panic(err)
	}
	return step
}

func (d durableStore) AbortSuffix(keep map[model.TxnID]int) error { return d.db.AbortSuffix(keep) }
func (d durableStore) CommitGroup(ids []model.TxnID)              { d.db.CommitGroup(ids) }
func (d durableStore) Values() map[model.EntityID]model.Value     { return d.db.Values() }

// CrashPlan runs a workload to completion across injected crashes: the
// simulator executes until each crash time, the volatile state (schedulers,
// in-flight transactions, program states) is lost, the WAL recovers the
// committed state, and a fresh round resumes the survivors' leftovers —
// i.e. every transaction without a durable commit restarts from scratch.
type CrashPlan struct {
	Cfg     Config
	Spec    breakpoint.Spec
	Init    map[model.EntityID]model.Value
	Crashes []int64 // simulated times at which the system crashes
	// NewControl builds a fresh control per round (controls are volatile).
	NewControl func() sched.Control
}

// CrashResult aggregates a crash-recovery run.
type CrashResult struct {
	Exec      model.Execution // committed steps across all rounds, in order
	Final     map[model.EntityID]model.Value
	Rounds    int
	Committed int
	// RedoneTxns counts transaction attempts lost to crashes (in-flight at
	// a crash and restarted in a later round).
	RedoneTxns int
}

// RunWithCrashes executes the plan. Each crash is a full stop: rounds are
// separate simulations over the recovered durable state.
func RunWithCrashes(plan CrashPlan, programs []model.Program) (*CrashResult, error) {
	if plan.NewControl == nil {
		return nil, fmt.Errorf("sim: CrashPlan.NewControl is required")
	}
	medium := wal.NewMedium()
	remaining := programs
	out := &CrashResult{Final: map[model.EntityID]model.Value{}}
	crashes := append([]int64(nil), plan.Crashes...)
	sort.Slice(crashes, func(i, j int) bool { return crashes[i] < crashes[j] })

	for round := 0; ; round++ {
		if round > len(crashes)+8 {
			return nil, fmt.Errorf("sim: crash plan did not converge after %d rounds", round)
		}
		db, err := wal.Open(medium, plan.Init)
		if err != nil {
			return nil, fmt.Errorf("sim: recovery before round %d: %w", round, err)
		}
		// Drop programs whose transactions committed durably.
		var todo []model.Program
		for _, p := range remaining {
			if !db.Committed(p.ID()) {
				todo = append(todo, p)
			}
		}
		out.Rounds = round + 1
		if len(todo) == 0 {
			out.Final = db.Values()
			return out, nil
		}

		cfg := plan.Cfg
		if round < len(crashes) {
			cfg.stopAt = crashes[round]
		}
		r := New(cfg, todo, plan.NewControl(), plan.Spec, plan.Init)
		r.store = durableStore{db: db}
		// The recovered values are authoritative; reset the runner's store
		// initialization side effects are none (New built a fresh volatile
		// store we just replaced).
		res, err := r.Run()
		if err != nil {
			return nil, fmt.Errorf("sim: round %d: %w", round, err)
		}
		out.Exec = append(out.Exec, res.Exec...)
		out.Committed += res.Stats.Committed
		if round < len(crashes) {
			out.RedoneTxns += len(todo) - res.Stats.Committed
		}
		remaining = todo
		medium = db.Crash()
	}
}

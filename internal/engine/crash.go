package engine

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"mla/internal/breakpoint"
	"mla/internal/fault"
	"mla/internal/model"
	"mla/internal/sched"
	"mla/internal/wal"
)

// CrashPlan runs a workload to completion across injected crashes, the
// concurrent counterpart of sim.CrashPlan: the engine executes on the
// group-commit pipeline mlaserve serves (PipelinedWALStore) until the fault
// injector kills it (the medium latching at a configured append count, or a
// wall-clock budget running out), the volatile state — control, in-flight
// transactions, program states — is lost, optionally the durable tail is
// torn, the WAL recovers the committed state, and a fresh round restarts
// every transaction without a durable commit.
type CrashPlan struct {
	Cfg  Config
	Spec breakpoint.Spec
	Init map[model.EntityID]model.Value
	// Faults configures the injector shared across all recovery rounds;
	// crash-append counts are cumulative over the whole run, so each
	// configured crash fires exactly once and the run provably converges.
	Faults fault.Plan
	// NewControl builds a fresh control per round (controls are volatile).
	NewControl func() sched.Control
}

// CrashResult aggregates a crash-recovery run of the concurrent engine.
// Its Counts sum every round's, with two exceptions: Committed counts the
// durable commits (recovery's count plus the final round's), and GaveUp
// counts the transactions parked by the final round's restart budget. A
// crash reboots parked transactions — the operator restarts the system and
// parked work is retried — so only the completing round's give-ups are
// terminal.
type CrashResult struct {
	Counts
	// Exec holds the committed steps across all rounds in performance
	// order, filtered to transactions whose commits were durable — steps
	// of a commit group torn off the log tail are excluded (those
	// transactions re-ran in a later round).
	Exec      model.Execution
	Final     map[model.EntityID]model.Value
	Rounds    int
	Crashes   int
	TornTotal int // durable records lost to torn tails across all crashes
	// RedoneTxns counts transaction attempts lost to crashes: in-flight
	// (or in-memory committed but durably torn) at a crash and restarted
	// in a later round.
	RedoneTxns int
}

// add sums a round's counts into c.
func (c *Counts) add(r Counts) {
	c.Committed += r.Committed
	c.Aborts += r.Aborts
	c.Cascades += r.Cascades
	c.Steps += r.Steps
	c.Cuts += r.Cuts
	c.GaveUp += r.GaveUp
	c.DeadlineAborts += r.DeadlineAborts
	c.FaultsInjected += r.FaultsInjected
	c.Waits += r.Waits
	c.Waited += r.Waited
}

// RunWithCrashes executes the plan to completion. Each crash is a full
// stop: rounds are separate engine runs over the recovered durable state,
// sharing only the durable medium and the fault injector. Committed work
// is never redone — a transaction with a durable commit record is filtered
// out of every later round, and its steps survive in Exec exactly once.
func RunWithCrashes(ctx context.Context, plan CrashPlan, programs []model.Program) (*CrashResult, error) {
	if plan.NewControl == nil {
		return nil, fmt.Errorf("engine: CrashPlan.NewControl is required")
	}
	inj := fault.New(plan.Faults)
	medium := wal.NewMedium()
	medium.Faults = inj
	out := &CrashResult{Final: map[model.EntityID]model.Value{}}
	obs := plan.Cfg.Observer
	maxRounds := plan.Faults.Crashes() + 8

	// pending holds the crashed round's steps of decided transactions —
	// acked, or submitted and unacked; they join Exec only after the next
	// recovery confirms the commit record is durable and survived the torn
	// tail. seen holds the transactions whose commit the crashed round's
	// observer saw.
	var pending model.Execution
	var seen announced
	prevTodo, prevDurable := 0, 0
	for round := 0; ; round++ {
		if round >= maxRounds {
			return nil, fmt.Errorf("engine: crash plan did not converge after %d rounds", round)
		}
		db, err := wal.Open(medium, plan.Init)
		if err != nil {
			return nil, fmt.Errorf("engine: recovery before round %d: %w", round, err)
		}
		// Keep only steps whose transaction is durably committed; the rest
		// belonged to commit groups that never reached the medium or were
		// lost with the torn tail, and will be re-executed (and re-recorded)
		// by a later round.
		for _, s := range pending {
			if db.Committed(s.Txn) {
				out.Exec = append(out.Exec, s)
			}
		}
		// The durable ones the observer never saw are announced after
		// Recovered, so a recorded history names every durable commit.
		var late []model.TxnID
		for _, id := range pending.Txns() {
			if db.Committed(id) && !seen.ids[id] {
				late = append(late, id)
			}
		}
		slices.Sort(late)
		pending = nil

		// Restart every transaction without a durable commit. Give-ups are
		// not carried across crashes: a reboot retries parked work with a
		// fresh restart budget.
		var todo []model.Program
		durable := 0
		for _, p := range programs {
			if db.Committed(p.ID()) {
				durable++
			} else {
				todo = append(todo, p)
			}
		}
		if round > 0 {
			// Attempts lost to the last crash: everything the crashed round
			// tried minus what it made durable (post-tear).
			out.RedoneTxns += prevTodo - (durable - prevDurable)
			if obs != nil {
				obs.Recovered(round, durable)
				if len(late) > 0 {
					obs.CommitGroup(late)
				}
			}
		}
		out.Rounds = round + 1
		// Recovery's count replaces the crashed rounds' in-memory commits (a
		// torn group re-runs; a swallowed ack is durable all the same), and a
		// reboot retries parked work: only the final round adds to either.
		out.Committed, out.GaveUp = durable, 0
		if len(todo) == 0 {
			out.Final = db.Values()
			return out, nil
		}

		cfg := plan.Cfg
		cfg.Faults = inj
		if obs != nil {
			seen = announced{ids: make(map[model.TxnID]bool)}
			cfg.Observer = Tee(obs, &seen)
		}
		base := db.LogLen()
		pipe := wal.NewPipeline(db, 0)
		res, err := RunOnStore(ctx, cfg, todo, plan.NewControl(), plan.Spec, NewPipelinedWALStore(pipe))
		// Stop the flusher before the medium is read: it flushes what was
		// submitted, or — once the medium has crashed — acks it unwritten.
		pipe.Close()
		switch {
		case err == nil:
			// Clean completion: every commit this round is durable and the
			// round's give-ups are terminal.
			out.Exec = append(out.Exec, res.Exec...)
			out.add(res.Counts)
			out.Final = res.Final
			return out, nil
		case errors.Is(err, fault.ErrCrash):
			out.Crashes++
			prevTodo, prevDurable = len(todo), durable
			if res != nil {
				pending = res.Exec
				out.add(res.Counts)
			}
			// Tear the tail: in-flight writes of this round never reached
			// the device. Records that survived an earlier recovery were
			// already durable, so the tear cannot reach past this round's
			// first append.
			torn := inj.TearTail()
			if n := db.LogLen() - base; torn > n {
				torn = n
			}
			medium = db.Crash()
			if torn > 0 {
				recs := medium.Records()
				keep := int64(0)
				if torn < len(recs) {
					keep = recs[len(recs)-1-torn].LSN
				}
				medium = medium.Prefix(keep)
				out.TornTotal += torn
			}
			if obs != nil {
				obs.Crashed(round, torn)
			}
		default:
			return nil, fmt.Errorf("engine: round %d: %w", round, err)
		}
	}
}

// announced records the transactions whose commit group a round's observer
// saw; the recovery loop announces the durable rest.
type announced struct {
	NopObserver
	ids map[model.TxnID]bool
}

func (a *announced) CommitGroup(ids []model.TxnID) {
	for _, id := range ids {
		a.ids[id] = true
	}
}

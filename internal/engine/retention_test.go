package engine

import (
	"context"
	"testing"
	"time"

	"mla/internal/breakpoint"
	"mla/internal/coherent"
	"mla/internal/model"
	"mla/internal/nest"
	"mla/internal/sched"
	"mla/internal/wal"
)

// TestBatchRunRetainsWholeTrace pins the one thing that differs between the
// engine's two drivers: a batch Run must keep its whole step trace and
// transaction table, because they become Result.Exec, while a resident
// session compacts them once the trace passes traceCap (1024). The run here
// performs several thousand steps, with restarts, so a batch driver that
// forgot to switch compaction off would hand back a silently truncated Exec
// — and still pass every small batch test.
func TestBatchRunRetainsWholeTrace(t *testing.T) {
	const nTxn, nSteps, nEnt = 400, 8, 800 // 3,200 committed steps; neighbouring programs share 5 of their 8 entities
	stores := map[string]func(t *testing.T, init map[model.EntityID]model.Value) Store{
		"volatile": func(_ *testing.T, init map[model.EntityID]model.Value) Store {
			return NewVolatileStore(init)
		},
		"pipelined-wal": func(t *testing.T, init map[model.EntityID]model.Value) Store {
			db, err := wal.Open(wal.NewMedium(), init)
			if err != nil {
				t.Fatal(err)
			}
			pipe := wal.NewPipeline(db, time.Millisecond)
			t.Cleanup(func() { pipe.Close() })
			return NewPipelinedWALStore(pipe)
		},
	}
	for name, mkStore := range stores {
		t.Run(name, func(t *testing.T) {
			progs, init, want := incWorkload(nTxn, nSteps, nEnt)
			n := nest.New(2)
			for _, p := range progs {
				n.Add(p.ID())
			}
			spec := breakpoint.Uniform{Levels: 2, C: 2}
			var ev EventCounts
			// The step delay forces real overlap, so neighbours wound each
			// other whatever the machine's load: roughly twice as many steps
			// are performed as survive.
			res, err := RunOnStore(context.Background(), Config{Seed: 9, StepDelay: 50 * time.Microsecond, Observer: &ev},
				progs, sched.NewShardedTwoPhase(8), spec, mkStore(t, init))
			if err != nil {
				t.Fatal(err)
			}
			if res.Committed != nTxn {
				t.Fatalf("committed %d/%d", res.Committed, nTxn)
			}
			if res.Restarts == 0 {
				t.Fatal("workload produced no restarts; the trace holds no superseded attempts to filter")
			}
			if ev.Steps < 3000 || ev.Steps <= len(res.Exec) {
				t.Fatalf("performed %d steps for %d survivors; want ≥ 3000 and some rolled back", ev.Steps, len(res.Exec))
			}
			if len(res.Exec) != nTxn*nSteps {
				t.Fatalf("len(Exec) = %d, want %d: the batch trace was truncated", len(res.Exec), nTxn*nSteps)
			}
			if err := res.Exec.Validate(init); err != nil {
				t.Errorf("value chain: %v", err)
			}
			if ok, err := coherent.Correctable(res.Exec, n, spec); err != nil || !ok {
				t.Errorf("not correctable (err=%v)", err)
			}
			for x, v := range want {
				if res.Final[x] != v {
					t.Errorf("final[%s] = %d, want %d", x, res.Final[x], v)
				}
			}
			if len(res.Latencies) != res.Committed || len(res.WaitTimes) != res.Committed {
				t.Errorf("%d latency and %d wait samples for %d commits", len(res.Latencies), len(res.WaitTimes), res.Committed)
			}
			total := 0
			for _, g := range res.CommitGroups {
				total += g
			}
			if total != res.Committed {
				t.Errorf("commit groups cover %d of %d commits", total, res.Committed)
			}
		})
	}
}

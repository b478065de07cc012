package engine

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"mla/internal/breakpoint"
	"mla/internal/coherent"
	"mla/internal/model"
	"mla/internal/nest"
	"mla/internal/sched"
	"mla/internal/storage"
	"mla/internal/wal"
)

// TestBatchRunRetainsWholeTrace pins the one thing that differs between the
// engine's two drivers: a batch Run turns on the recovery ledger's record,
// whose committed execution becomes Result.Exec, while a resident session
// records nothing. The run here performs several thousand steps, with
// restarts, so a batch driver that lost steps — or kept a rolled-back
// attempt's — would hand back a silently wrong Exec and still pass every
// small batch test.
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
			// The step delay forces real overlap, so neighbours wound each
			// other whatever the machine's load: roughly twice as many steps
			// are performed as survive.
			res, err := RunOnStore(context.Background(), Config{Seed: 9, StepDelay: 50 * time.Microsecond},
				progs, sched.NewShardedTwoPhase(8), spec, mkStore(t, init))
			if err != nil {
				t.Fatal(err)
			}
			if res.Committed != nTxn {
				t.Fatalf("committed %d/%d", res.Committed, nTxn)
			}
			if res.Aborts == 0 {
				t.Fatal("workload produced no restarts; the trace holds no superseded attempts to filter")
			}
			if res.Steps < 3000 || res.Steps <= len(res.Exec) {
				t.Fatalf("performed %d steps for %d survivors; want ≥ 3000 and some rolled back", res.Steps, len(res.Exec))
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

// TestBatchRunKeepsOnlyTheRecord runs a batch the way RunOnStore does — a
// session whose ledger records, every program submitted from its own
// goroutine — with restarts, and finds that the record is all it keeps:
// every submission retired its transaction record into the free list, and
// the ledger's execution still holds every committed step.
func TestBatchRunKeepsOnlyTheRecord(t *testing.T) {
	const nTxn, nSteps, nEnt = 200, 8, 400
	progs, init, want := incWorkload(nTxn, nSteps, nEnt)
	store := NewVolatileStore(init)
	s := NewSession(Config{Seed: 9, StepDelay: 50 * time.Microsecond}, sched.NewShardedTwoPhase(8), breakpoint.Uniform{Levels: 2, C: 2}, store)
	s.e.led.Record()
	errs := make(chan error, len(progs))
	var wg sync.WaitGroup
	for i, p := range progs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if out, err := s.submit(context.Background(), p, SubmitOpts{}, int64(i)); err != nil || !out.Committed {
				errs <- fmt.Errorf("%s resolved %+v, %v", p.ID(), out, err)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Restarts == 0 {
		t.Fatal("workload produced no restarts; the record holds no superseded attempts to drop")
	}
	e := s.e
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.txns) != 0 {
		t.Errorf("%d transaction records left in the table", len(e.txns))
	}
	if len(e.free) == 0 {
		t.Error("no record was recycled into the free list")
	}
	exec := e.led.Execution()
	if len(exec) != nTxn*nSteps {
		t.Fatalf("len(Execution) = %d, want %d committed steps", len(exec), nTxn*nSteps)
	}
	if err := exec.Validate(init); err != nil {
		t.Errorf("value chain: %v", err)
	}
	total := 0
	for _, g := range e.led.Groups() {
		total += g
	}
	if total != nTxn {
		t.Errorf("commit groups cover %d of %d commits", total, nTxn)
	}
	final := store.Values()
	for x, v := range want {
		if final[x] != v {
			t.Errorf("final[%s] = %d, want %d", x, final[x], v)
		}
	}
}

// TestResidentSessionKeepsNoTrace serves the same kind of overlapping
// workload through a resident session, with restarts — wounds under sharded
// 2PL, cascading rollbacks under the Detector — and finds no step trace: a
// rollback takes the authors it restores from the recovery ledger, not from
// a replay. Once drained, every transaction has committed, so no entity may
// still name an author: a reader of every entity must commit alone.
func TestResidentSessionKeepsNoTrace(t *testing.T) {
	const nTxn, nSteps, nEnt = 200, 8, 400
	progs, init, want := incWorkload(nTxn, nSteps, nEnt)
	n := nest.New(2)
	for _, p := range progs {
		n.Add(p.ID())
	}
	spec := breakpoint.Uniform{Levels: 2, C: 2}
	for name, control := range map[string]sched.Control{
		"2pl-sharded": sched.NewShardedTwoPhase(8),
		"detect":      sched.NewDetector(n, spec),
	} {
		t.Run(name, func(t *testing.T) {
			store := NewVolatileStore(init)
			s := NewSession(Config{Seed: 9, StepDelay: 50 * time.Microsecond}, control, spec, store)
			errs := make(chan error, len(progs))
			var wg sync.WaitGroup
			for _, p := range progs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if out, err := s.Submit(context.Background(), p, SubmitOpts{}); err != nil || !out.Committed {
						errs <- fmt.Errorf("%s resolved %+v, %v", p.ID(), out, err)
					}
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			if err := s.Drain(context.Background()); err != nil {
				t.Fatal(err)
			}
			st := s.Stats()
			if st.Restarts == 0 {
				t.Fatal("workload produced no restarts; no rollback restored an author")
			}
			e := s.e
			e.mu.Lock()
			if e.led.Execution() != nil {
				t.Errorf("a resident session kept a record of %d steps", len(e.led.Execution()))
			}
			// An author left behind — a committed transaction the ledger
			// failed to drop — would give the reader a dependency on a
			// transaction it no longer knows, which blocks its group.
			reader := new(storage.Txn)
			e.led.Add(reader, "reader")
			seq := 0
			for x, v := range want {
				seq++
				e.led.Observe(reader, model.Step{Txn: "reader", Seq: seq, Entity: x, Before: v, After: v})
			}
			e.led.Finish(reader)
			if g := e.led.Group(nil); len(g) != 1 {
				t.Errorf("a reader of every entity commits in group %v: an entity still names an author", g)
			}
			e.mu.Unlock()
			final := store.Values()
			for x, v := range want {
				if final[x] != v {
					t.Errorf("final[%s] = %d, want %d", x, final[x], v)
				}
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			t.Logf("%d restarts, %d cascades, %d waits", st.Restarts, st.Cascades, st.Waits)
		})
	}
}

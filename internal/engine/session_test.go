package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"mla/internal/breakpoint"
	"mla/internal/fault"
	"mla/internal/model"
	"mla/internal/sched"
	"mla/internal/wal"
)

// waitGoroutines retries until the goroutine count returns to the baseline
// or the deadline passes — shared leak check for every session lifecycle
// test (workers and timer goroutines must all be joined or retired by
// Close).
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSessionConcurrentCommits is the open-submission smoke test: many
// goroutines submit contended transactions into one resident engine, all of
// them commit, the final state is exact, and the session winds down without
// lock residue or goroutine leaks.
func TestSessionConcurrentCommits(t *testing.T) {
	before := runtime.NumGoroutine()
	ents := []model.EntityID{"a", "b", "c", "d"}
	init := map[model.EntityID]model.Value{}
	for _, x := range ents {
		init[x] = 100
	}
	stp := sched.NewShardedTwoPhase(8)
	s := NewSession(Config{Seed: 11}, stp, breakpoint.Uniform{Levels: 2, C: 2}, NewVolatileStore(init))

	const subs = 48
	var wg sync.WaitGroup
	errs := make(chan error, subs)
	for i := 0; i < subs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Each transaction moves 1 between two entities — contention on
			// four entities from 48 goroutines forces real waits and wounds.
			from, to := ents[i%len(ents)], ents[(i+1)%len(ents)]
			p := &model.Scripted{
				Txn: model.TxnID(fmt.Sprintf("t%02d", i)),
				Ops: []model.Op{model.Add(from, -1), model.Add(to, 1)},
			}
			out, err := s.Submit(context.Background(), p, SubmitOpts{})
			if err != nil {
				errs <- err
				return
			}
			if !out.Committed {
				errs <- fmt.Errorf("t%02d resolved without committing: %+v", i, out)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	st := s.Stats()
	if st.Committed != subs {
		t.Errorf("session committed %d/%d", st.Committed, subs)
	}
	if st.Inflight != 0 {
		t.Errorf("inflight %d after all submissions returned", st.Inflight)
	}
	var sum model.Value
	for _, v := range s.e.store.Values() {
		sum += v
	}
	if want := model.Value(100 * len(ents)); sum != want {
		t.Errorf("transfers did not conserve: sum %d, want %d", sum, want)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Errorf("drain of an idle session: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
	if locked := stp.LockSnapshot().Locked; locked != 0 {
		t.Errorf("%d locks leaked after close", locked)
	}
	waitGoroutines(t, before)
}

// TestSessionShardedLeavesEmptyTable churns uniquely named submissions
// through a resident sharded-2PL session until wounds have restarted some,
// then drains it: the lock table holds no lock, no holder and no index
// entry — priorities leave with the locks, so the table stays bounded by
// the submissions in flight, not by the ids the session has seen.
func TestSessionShardedLeavesEmptyTable(t *testing.T) {
	ents := []model.EntityID{"a", "b", "c", "d"}
	init := map[model.EntityID]model.Value{}
	for _, x := range ents {
		init[x] = 100
	}
	stp := sched.NewShardedTwoPhase(8)
	// The step delay holds each first lock long enough for the next
	// submission to collide with it.
	s := NewSession(Config{Seed: 12, StepDelay: 100 * time.Microsecond}, stp, breakpoint.Uniform{Levels: 2, C: 2}, NewVolatileStore(init))
	const subs = 24
	for round := 0; round < 2 || s.Stats().Restarts == 0; round++ {
		if round == 50 {
			t.Fatalf("no restart in %d rounds of %d contended submissions", round, subs)
		}
		var wg sync.WaitGroup
		for i := 0; i < subs; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				p := &model.Scripted{
					Txn: model.TxnID(fmt.Sprintf("r%d-t%02d", round, i)),
					Ops: []model.Op{model.Add(ents[i%len(ents)], -1), model.Add(ents[(i+1)%len(ents)], 1)},
				}
				if out, err := s.Submit(context.Background(), p, SubmitOpts{}); err != nil || !out.Committed {
					t.Errorf("%s: %+v, %v", p.Txn, out, err)
				}
			}(i)
		}
		wg.Wait()
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if st := stp.LockSnapshot(); st.Locked != 0 || st.Holders != 0 || st.Entries != 0 {
		t.Errorf("drained session left %+v in the lock table", st)
	}
	if err := s.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
}

// releaseCounter is sched.ShardedTwoPhase counting the ReleaseAll calls
// each transaction receives; embedding keeps the control's Concurrent and
// StepQuiescent markers, so the engine drives it as it drives the real one.
type releaseCounter struct {
	*sched.ShardedTwoPhase
	mu    sync.Mutex
	calls map[model.TxnID]int
}

func (c *releaseCounter) ReleaseAll(t model.TxnID) {
	c.mu.Lock()
	c.calls[t]++
	c.mu.Unlock()
	c.ShardedTwoPhase.ReleaseAll(t)
}

func (c *releaseCounter) count(t model.TxnID) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls[t]
}

// TestRetireReleasesOnlyResidue: retiring a committed submission pays no
// ReleaseAll, because Finished already released its locks, while the
// outcomes that can leave residue keep paying it: a submission parked by
// its restart budget and one abandoned by Close, whose held lock only the
// retire frees.
func TestRetireReleasesOnlyResidue(t *testing.T) {
	newSession := func(t *testing.T, cfg Config) (*Session, *releaseCounter) {
		t.Helper()
		rc := &releaseCounter{ShardedTwoPhase: sched.NewShardedTwoPhase(8), calls: map[model.TxnID]int{}}
		if caps := sched.CapabilitiesOf(rc); !caps.Concurrent || !caps.QuiescentSteps || caps.ReleaseAll == nil {
			t.Fatalf("the wrapper lost a capability: %+v", caps)
		}
		return NewSession(cfg, rc, nil, NewVolatileStore(map[model.EntityID]model.Value{"x": 0, "y": 0})), rc
	}
	inc := func(id model.TxnID) *model.Scripted {
		return &model.Scripted{Txn: id, Ops: []model.Op{model.Add("x", 1), model.Add("y", 1)}}
	}
	t.Run("committed", func(t *testing.T) {
		s, rc := newSession(t, Config{})
		defer s.Close()
		for i := 0; i < 20; i++ {
			id := model.TxnID(fmt.Sprintf("c%d", i))
			if out, err := s.Submit(context.Background(), inc(id), SubmitOpts{}); err != nil || !out.Committed {
				t.Fatalf("%s: %+v, %v", id, out, err)
			}
			if n := rc.count(id); n != 0 {
				t.Fatalf("committed %s received %d ReleaseAll calls, want 0", id, n)
			}
		}
		if st := rc.LockSnapshot(); st.Locked != 0 || st.Entries != 0 {
			t.Errorf("committed submissions left %+v in the lock table", st)
		}
	})
	t.Run("parked", func(t *testing.T) {
		// Every step attempt fails, so the budget runs out before any lock.
		s, rc := newSession(t, Config{Faults: fault.New(fault.Plan{Seed: 3, StepErrorRate: 1.0})})
		defer s.Close()
		out, err := s.Submit(context.Background(), inc("g"), SubmitOpts{MaxRestarts: 2})
		if err != nil || !out.GaveUp {
			t.Fatalf("want GaveUp, got %+v, %v", out, err)
		}
		if n := rc.count("g"); n < 1 {
			t.Errorf("parked submission received %d ReleaseAll calls, want at least 1", n)
		}
	})
	t.Run("abandoned", func(t *testing.T) {
		// The step delay holds the first lock until Close cuts the sleep.
		s, rc := newSession(t, Config{StepDelay: time.Minute})
		done := make(chan error, 1)
		go func() {
			_, err := s.Submit(context.Background(), inc("z"), SubmitOpts{})
			done <- err
		}()
		for deadline := time.Now().Add(5 * time.Second); rc.LockSnapshot().Locked == 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("the submission never took its first lock")
			}
		}
		if err := s.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
		if err := <-done; !errors.Is(err, ErrSessionClosed) {
			t.Errorf("abandoned submission error = %v, want ErrSessionClosed", err)
		}
		if n := rc.count("z"); n < 1 {
			t.Errorf("abandoned submission received %d ReleaseAll calls, want at least 1", n)
		}
		if st := rc.LockSnapshot(); st.Locked != 0 || st.Entries != 0 {
			t.Errorf("the abandoned submission left %+v in the lock table", st)
		}
	})
}

// beginCounter is the no-op control that counts Begin calls.
type beginCounter struct {
	sched.Control
	begins int
}

func (b *beginCounter) Begin(t model.TxnID, prio int64) {
	b.begins++
	b.Control.Begin(t, prio)
}

// TestAdmissionRefusesExpiredSubmission: a submission whose deadline has
// already passed, or whose client has already gone, is refused in the
// admission section before its first attempt begins — a refusal, not a
// rollback, so nothing is counted and the control never hears of it.
func TestAdmissionRefusesExpiredSubmission(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name string
		ctx  context.Context
		opts SubmitOpts
		want Outcome
	}{
		{"past deadline", context.Background(), SubmitOpts{Deadline: time.Now().Add(-time.Second)}, Outcome{DeadlineExceeded: true}},
		{"cancelled context", cancelled, SubmitOpts{}, Outcome{Canceled: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bc := &beginCounter{Control: sched.NewNone()}
			s := NewSession(Config{}, bc, breakpoint.Uniform{Levels: 2, C: 2}, NewVolatileStore(nil))
			p := &model.Scripted{Txn: "late", Ops: []model.Op{model.Add("x", 1)}}
			out, err := s.Submit(tc.ctx, p, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if out != tc.want {
				t.Errorf("outcome %+v, want %+v", out, tc.want)
			}
			if st := s.Stats(); st.DeadlineAborts != 0 || st.Inflight != 0 {
				t.Errorf("stats %+v: want no deadline abort and nothing in flight", st)
			}
			if bc.begins != 0 {
				t.Errorf("the control saw %d Begin calls, want 0", bc.begins)
			}
			if err := s.Close(); err != nil {
				t.Errorf("close: %v", err)
			}
		})
	}
}

// waitControl always answers Wait — the deterministic way to park a
// submission so its deadline or cancellation must fire. It implements the
// DeadlineAborter capability so the test can assert the engine routes
// deadline kills into the control's distinct counter.
type waitControl struct{ stats sched.Stats }

func (*waitControl) Name() string             { return "wait" }
func (*waitControl) Begin(model.TxnID, int64) {}
func (w *waitControl) Request(model.TxnID, int, model.EntityID) sched.Decision {
	w.stats.Requests++
	w.stats.Waits++
	return sched.Decision{Kind: sched.Wait}
}
func (*waitControl) Performed(model.TxnID, int, model.EntityID, int) {}
func (*waitControl) Finished(model.TxnID)                            {}
func (w *waitControl) Aborted(v []model.TxnID)                       { w.stats.Aborts += len(v) }
func (w *waitControl) DeadlineAborted(model.TxnID)                   { w.stats.Deadlines++ }
func (w *waitControl) Stats() *sched.Stats                           { return &w.stats }

// TestSessionDeadline: a submission blocked forever by the control must be
// withdrawn at its deadline, reported DeadlineExceeded, and counted
// distinctly from conflict aborts in both the engine's and the control's
// stats.
func TestSessionDeadline(t *testing.T) {
	before := runtime.NumGoroutine()
	wc := &waitControl{}
	s := NewSession(Config{}, wc, breakpoint.Uniform{Levels: 2, C: 2}, NewVolatileStore(nil))
	p := &model.Scripted{Txn: "d", Ops: []model.Op{model.Add("x", 1)}}
	start := time.Now()
	out, err := s.Submit(context.Background(), p, SubmitOpts{Deadline: time.Now().Add(40 * time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	if !out.DeadlineExceeded || out.Committed || out.Canceled || out.GaveUp {
		t.Fatalf("want DeadlineExceeded, got %+v", out)
	}
	if e := time.Since(start); e > 5*time.Second {
		t.Errorf("deadline took %v to fire", e)
	}
	if st := s.Stats(); st.DeadlineAborts != 1 {
		t.Errorf("engine DeadlineAborts = %d, want 1", st.DeadlineAborts)
	}
	if wc.stats.Deadlines != 1 {
		t.Errorf("control Deadlines = %d, want 1 (DeadlineAborter not wired?)", wc.stats.Deadlines)
	}
	if err := s.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
	waitGoroutines(t, before)
}

// TestSessionCancel: cancelling the Submit context withdraws a blocked
// transaction promptly and reports Canceled, not an error — the client
// walked away, the engine is fine.
func TestSessionCancel(t *testing.T) {
	before := runtime.NumGoroutine()
	s := NewSession(Config{}, &waitControl{}, breakpoint.Uniform{Levels: 2, C: 2}, NewVolatileStore(nil))
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	p := &model.Scripted{Txn: "c", Ops: []model.Op{model.Add("x", 1)}}
	out, err := s.Submit(ctx, p, SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Canceled {
		t.Fatalf("want Canceled, got %+v", out)
	}
	if err := s.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
	waitGoroutines(t, before)
}

// TestSessionGiveUp: a submission that exhausts its restart budget is parked
// and reported GaveUp, holding nothing.
func TestSessionGiveUp(t *testing.T) {
	// StepErrorRate 1.0 makes every step attempt fail, so each attempt
	// burns its in-place retries and restarts until the budget runs out.
	inj := fault.New(fault.Plan{Seed: 3, StepErrorRate: 1.0})
	s := NewSession(
		Config{Faults: inj},
		sched.NewNone(), breakpoint.Uniform{Levels: 2, C: 2}, NewVolatileStore(nil),
	)
	p := &model.Scripted{Txn: "g", Ops: []model.Op{model.Add("x", 1)}}
	out, err := s.Submit(context.Background(), p, SubmitOpts{MaxRestarts: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !out.GaveUp {
		t.Fatalf("want GaveUp, got %+v", out)
	}
	if out.Restarts < 3 {
		t.Errorf("restarts = %d, want >= 3", out.Restarts)
	}
	if st := s.Stats(); st.GaveUp != 1 || st.FaultsInjected == 0 {
		t.Errorf("stats %+v: want GaveUp 1 and faults injected", st)
	}
	if err := s.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
}

// TestSessionDrainRejects: Drain flips the session to draining — new
// submissions are refused with ErrDraining while in-flight ones resolve —
// and returns once idle.
func TestSessionDrainRejects(t *testing.T) {
	s := NewSession(Config{}, sched.NewNone(), breakpoint.Uniform{Levels: 2, C: 2}, NewVolatileStore(nil))
	p := &model.Scripted{Txn: "a", Ops: []model.Op{model.Add("x", 1)}}
	if out, err := s.Submit(context.Background(), p, SubmitOpts{}); err != nil || !out.Committed {
		t.Fatalf("pre-drain submit: %+v, %v", out, err)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	q := &model.Scripted{Txn: "b", Ops: []model.Op{model.Add("x", 1)}}
	if _, err := s.Submit(context.Background(), q, SubmitOpts{}); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain submit error = %v, want ErrDraining", err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
	// Submits on the closed session report closed, not draining.
	if _, err := s.Submit(context.Background(), q, SubmitOpts{}); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("post-close submit error = %v, want ErrSessionClosed", err)
	}
}

// TestSessionDuplicateID: two in-flight submissions may not share a
// transaction ID, and the rejection must not disturb the first submission's
// record (the rejected path owns nothing to retire).
func TestSessionDuplicateID(t *testing.T) {
	s := NewSession(Config{}, &waitControl{}, breakpoint.Uniform{Levels: 2, C: 2}, NewVolatileStore(nil))
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan Outcome, 1)
	go func() {
		out, _ := s.Submit(ctx, &model.Scripted{Txn: "dup", Ops: []model.Op{model.Add("x", 1)}}, SubmitOpts{})
		done <- out
	}()
	// Wait until the first submission's record exists.
	deadline := time.Now().Add(2 * time.Second)
	for {
		s.e.mu.Lock()
		_, ok := s.e.txns["dup"]
		s.e.mu.Unlock()
		if ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first submission never registered")
		}
		time.Sleep(time.Millisecond)
	}
	_, err := s.Submit(context.Background(), &model.Scripted{Txn: "dup", Ops: []model.Op{model.Add("x", 1)}}, SubmitOpts{})
	if err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate submit error = %v", err)
	}
	cancel()
	if out := <-done; !out.Canceled {
		t.Fatalf("first submission should cancel cleanly, got %+v", out)
	}
	if err := s.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
}

// TestSessionPrepareCleanup: the per-submission hooks run under the engine
// mutex, Prepare before the transaction's first control interaction and
// Cleanup exactly once at retirement — on success and on rollback paths
// alike.
func TestSessionPrepareCleanup(t *testing.T) {
	s := NewSession(Config{}, sched.NewNone(), breakpoint.Uniform{Levels: 2, C: 2}, NewVolatileStore(nil))
	var mu sync.Mutex
	meta := make(map[model.TxnID]int)
	submit := func(id model.TxnID, deadline time.Time) {
		t.Helper()
		_, err := s.Submit(context.Background(), &model.Scripted{Txn: id, Ops: []model.Op{model.Add("x", 1)}}, SubmitOpts{
			Deadline: deadline,
			Prepare:  func() { mu.Lock(); meta[id]++; mu.Unlock() },
			Cleanup:  func() { mu.Lock(); meta[id] += 10; mu.Unlock() },
		})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
	submit("ok", time.Time{})
	// An already-expired deadline resolves before the first attempt, but
	// Prepare/Cleanup still bracket the admission.
	submit("late", time.Now().Add(-time.Second))
	mu.Lock()
	defer mu.Unlock()
	for id, n := range meta {
		if n != 11 {
			t.Errorf("%s: prepare+cleanup count = %d, want 11 (one each)", id, n)
		}
	}
}

// TestSessionCrashRace is the robustness test the service front-end rests
// on: N goroutines submit through the session, over the group-commit
// pipeline the service serves, while an injected crash kills the medium
// mid-run — on a worker's append or on the flusher's. Every submission must
// return (committed, or failed with the session's cause — never hang), every
// outcome acknowledged Committed must be durable on the recovered medium,
// and the wreck must leave no lock residue and no goroutines behind.
func TestSessionCrashRace(t *testing.T) {
	before := runtime.NumGoroutine()
	ents := []model.EntityID{"a", "b", "c", "d", "e", "f"}
	init := map[model.EntityID]model.Value{}
	for _, x := range ents {
		init[x] = 1000
	}
	// Crash at the 150th durable append: mid-run with 96 transactions of
	// ~4 appends each, so a healthy prefix commits and a healthy suffix
	// slams into the dead store from many goroutines at once.
	m := wal.NewMedium()
	m.Faults = fault.New(fault.Plan{Seed: 9, CrashAppends: []int64{150}})
	db, err := wal.Open(m, init)
	if err != nil {
		t.Fatal(err)
	}
	pipe := wal.NewPipeline(db, 0)
	stp := sched.NewShardedTwoPhase(8)
	s := NewSession(Config{Seed: 5, MaxRestarts: 64}, stp, breakpoint.Uniform{Levels: 2, C: 2}, NewPipelinedWALStore(pipe))

	const workers, perWorker = 24, 4
	var (
		mu     sync.Mutex
		acked  []model.TxnID
		failed int
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				id := model.TxnID(fmt.Sprintf("w%02d-%d", w, i))
				from, to := ents[(w+i)%len(ents)], ents[(w+i+1)%len(ents)]
				p := &model.Scripted{Txn: id, Ops: []model.Op{
					model.Add(from, -1), model.Add(to, 1), model.Add(ents[w%len(ents)], 0),
				}}
				out, err := s.Submit(context.Background(), p, SubmitOpts{})
				mu.Lock()
				switch {
				case err != nil:
					if !errors.Is(err, ErrSessionClosed) {
						t.Errorf("%s: unexpected error %v", id, err)
					}
					failed++
				case out.Committed:
					acked = append(acked, id)
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()

	// The session must have failed closed with the injected crash as cause.
	if err := s.Close(); !errors.Is(err, fault.ErrCrash) {
		t.Errorf("session cause = %v, want fault.ErrCrash", err)
	}
	if _, err := s.Submit(context.Background(), &model.Scripted{Txn: "post"}, SubmitOpts{}); !errors.Is(err, ErrSessionClosed) {
		t.Errorf("post-crash submit error = %v, want ErrSessionClosed", err)
	}
	if len(acked) == 0 {
		t.Error("crash point fired before any commit was acknowledged — test lost its teeth")
	}
	if failed == 0 {
		t.Error("no submission observed the crash — test lost its teeth")
	}

	// The durability contract: recovery of the crashed medium succeeds and
	// every acknowledged commit survives it. (No torn tail in this plan: the
	// pipeline acknowledges only records that reached the medium.)
	pipe.Close()
	rdb, err := wal.Open(db.Crash(), init)
	if err != nil {
		t.Fatalf("recovery after crash: %v", err)
	}
	for _, id := range acked {
		if !rdb.Committed(id) {
			t.Errorf("acknowledged commit %s lost by the crash", id)
		}
	}
	if locked := stp.LockSnapshot().Locked; locked != 0 {
		t.Errorf("%d locks leaked through the crash", locked)
	}
	waitGoroutines(t, before)
}

// TestSessionPipelinedDurability runs the session over the group-commit
// pipeline — each submission waiting on its group's durability ack — and
// checks every acknowledged commit is durable once the pipeline is flushed
// and closed.
func TestSessionPipelinedDurability(t *testing.T) {
	before := runtime.NumGoroutine()
	init := map[model.EntityID]model.Value{"x": 0, "y": 0}
	db, err := wal.Open(wal.NewMedium(), init)
	if err != nil {
		t.Fatal(err)
	}
	pipe := wal.NewPipeline(db, 200*time.Microsecond)
	stp := sched.NewShardedTwoPhase(4)
	s := NewSession(Config{Seed: 2}, stp, breakpoint.Uniform{Levels: 2, C: 2}, NewPipelinedWALStore(pipe))

	const subs = 32
	var wg sync.WaitGroup
	errs := make(chan error, subs)
	for i := 0; i < subs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			x := model.EntityID("x")
			if i%2 == 1 {
				x = "y"
			}
			p := &model.Scripted{Txn: model.TxnID(fmt.Sprintf("p%02d", i)), Ops: []model.Op{model.Add(x, 1)}}
			out, err := s.Submit(context.Background(), p, SubmitOpts{})
			if err != nil {
				errs <- err
			} else if !out.Committed {
				errs <- fmt.Errorf("p%02d: %+v", i, out)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	pipe.Close()
	for i := 0; i < subs; i++ {
		id := model.TxnID(fmt.Sprintf("p%02d", i))
		if !db.Committed(id) {
			t.Errorf("%s acknowledged but not durable", id)
		}
	}
	if vals := db.Values(); vals["x"]+vals["y"] != subs {
		t.Errorf("recovered sum %d, want %d", vals["x"]+vals["y"], subs)
	}
	waitGoroutines(t, before)
}

// TestSessionCloseAbandonsInflight: Close without Drain must unblock a
// parked submission with ErrSessionClosed promptly — the abandoned client
// never hangs — and still leak nothing.
func TestSessionCloseAbandonsInflight(t *testing.T) {
	before := runtime.NumGoroutine()
	s := NewSession(Config{}, &waitControl{}, breakpoint.Uniform{Levels: 2, C: 2}, NewVolatileStore(nil))
	done := make(chan error, 1)
	go func() {
		_, err := s.Submit(context.Background(), &model.Scripted{Txn: "z", Ops: []model.Op{model.Add("x", 1)}}, SubmitOpts{})
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // let it park on the wait generation
	if err := s.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, ErrSessionClosed) {
			t.Errorf("abandoned submission error = %v, want ErrSessionClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("abandoned submission never returned")
	}
	waitGoroutines(t, before)
}

// heldAckStore is a volatile store with an AsyncCommitter whose every group
// waits on one ack channel the test holds; submitted closes when the first
// group arrives.
type heldAckStore struct {
	Store
	ack       chan struct{}
	submitted chan struct{}
	once      sync.Once
}

func (h *heldAckStore) SubmitGroup([]model.TxnID) <-chan struct{} {
	h.once.Do(func() { close(h.submitted) })
	return h.ack
}

// eventLog records the names of the observer events it receives.
type eventLog struct {
	NopObserver
	mu     sync.Mutex
	events []string
}

func (l *eventLog) add(ev string) {
	l.mu.Lock()
	l.events = append(l.events, ev)
	l.mu.Unlock()
}

func (l *eventLog) CommitGroup([]model.TxnID)        { l.add("CommitGroup") }
func (l *eventLog) RunEnded(int, int, time.Duration) { l.add("RunEnded") }

// TestSessionCloseWithAckInFlight: a decided transaction whose group's ack
// lands only after Close is abandoned, not finalized. The submission returns
// ErrSessionClosed, RunEnded stays the observer's last event (no
// CommitGroup follows it), the session over an async store starts no
// goroutine of its own, and nothing leaks.
func TestSessionCloseWithAckInFlight(t *testing.T) {
	before := runtime.NumGoroutine()
	store := &heldAckStore{
		Store:     NewVolatileStore(map[model.EntityID]model.Value{"x": 0}),
		ack:       make(chan struct{}),
		submitted: make(chan struct{}),
	}
	obs := &eventLog{}
	s := NewSession(Config{Observer: obs}, sched.NewShardedTwoPhase(4), nil, store)
	if n := runtime.NumGoroutine(); n != before {
		t.Errorf("NewSession over an async store: %d goroutines, %d before", n, before)
	}
	done := make(chan error, 1)
	go func() {
		_, err := s.Submit(context.Background(), &model.Scripted{Txn: "a", Ops: []model.Op{model.Add("x", 1)}}, SubmitOpts{})
		done <- err
	}()
	select {
	case <-store.submitted:
	case <-time.After(5 * time.Second):
		t.Fatal("the transaction's group was never submitted")
	}
	time.Sleep(20 * time.Millisecond) // let it park on the ack
	if err := s.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
	close(store.ack)
	select {
	case err := <-done:
		if !errors.Is(err, ErrSessionClosed) {
			t.Errorf("abandoned submission error = %v, want ErrSessionClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("abandoned submission never returned")
	}
	waitGoroutines(t, before)

	obs.mu.Lock()
	defer obs.mu.Unlock()
	if n := len(obs.events); n == 0 || obs.events[n-1] != "RunEnded" {
		t.Errorf("observer events %v, want RunEnded last", obs.events)
	}
	if st := s.Stats(); st.Committed != 0 {
		t.Errorf("%d commits finalized after Close", st.Committed)
	}
}

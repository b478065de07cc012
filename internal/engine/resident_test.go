package engine

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mla/internal/bank"
	"mla/internal/breakpoint"
	"mla/internal/history"
	"mla/internal/model"
	"mla/internal/nest"
	"mla/internal/sched"
)

// windowRecorder forwards the history-bearing observer events to the
// current window's Recorder and samples the Preventer's closure width at
// every performed step (the hooks run under the engine mutex, which is
// also what serializes the control).
type windowRecorder struct {
	NopObserver
	rec                atomic.Pointer[history.Recorder]
	p                  *sched.Preventer
	maxSteps, maxSlots int
}

func (w *windowRecorder) StepPerformed(t model.TxnID, seq int, x model.EntityID, attempt, cut int) {
	w.rec.Load().StepPerformed(t, seq, x, attempt, cut)
	if n := w.p.ClosureSteps(); n > w.maxSteps {
		w.maxSteps = n
	}
	if n := w.p.ClosureSlots(); n > w.maxSlots {
		w.maxSlots = n
	}
}
func (w *windowRecorder) TxnAborted(t model.TxnID, cascade bool) {
	w.rec.Load().TxnAborted(t, cascade)
}
func (w *windowRecorder) CommitGroup(ids []model.TxnID) { w.rec.Load().CommitGroup(ids) }

// TestPreventerResidentBounded keeps ONE Preventer resident behind one
// session for 20,000 Section 4.2 banking transactions from 4 concurrent
// callers. Sealing must hold the closure to the width of what is in flight
// (a never-sealing closure would end near 120,000 step slots), so the last
// windows cost what the first ones did; and the schedule must stay what the
// Preventer promises: exact audits, conserved money, correctable history.
func TestPreventerResidentBounded(t *testing.T) {
	const (
		callers  = 4
		windows  = 20
		perRound = 1000
		// The widest the closure may get: every caller inside a 65-step bank
		// audit, plus a generous allowance for commits lingering behind them.
		maxLive = callers * 65 * 4
	)
	pop := bank.NewPopulation(bank.World{Families: 16, AccountsPerFamily: 4, InitialBalance: 1000}, 100, 125, nest.New(4), true)
	world := pop.World
	p := sched.NewPreventer(pop.Nest, pop.Spec)
	obs := &windowRecorder{p: p}
	obs.rec.Store(history.NewRecorder(pop.Nest))
	store := NewVolatileStore(world.Init())
	s := NewSession(Config{Seed: 1, Observer: obs}, p, pop.Spec, store)

	var auditMu sync.Mutex
	var audits []model.EntityID
	submit := func(rng *rand.Rand, i int) error {
		fam := rng.Intn(world.Families)
		var (
			prog model.Program
			path []string
		)
		switch m := i % 110; {
		case m%55 == 27: // 2 bank audits per 110
			prog, path = pop.Audit(model.TxnID(fmt.Sprintf("a%d", i)))
			auditMu.Lock()
			audits = append(audits, prog.(*bank.Audit).Result)
			auditMu.Unlock()
		case m%14 == 3: // 8 creditor audits
			prog, path = pop.Credit(model.TxnID(fmt.Sprintf("c%d", i)), fam)
		default: // 100 transfers, each to another family
			prog, path = pop.DrawTransfer(rng, model.TxnID(fmt.Sprintf("x%d", i)), fam, 100)
		}
		id := prog.ID()
		out, err := s.Submit(context.Background(), prog, SubmitOpts{
			Prepare: func() { pop.Prepare(prog, path) },
			Cleanup: func() { pop.Cleanup(id) },
		})
		if err == nil && !out.Committed {
			err = fmt.Errorf("%s resolved without committing: %+v", id, out)
		}
		return err
	}

	var next atomic.Int64
	elapsed := make([]time.Duration, windows)
	for w := 0; w < windows; w++ {
		limit := int64((w + 1) * perRound)
		start := time.Now()
		var wg sync.WaitGroup
		errs := make(chan error, callers)
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func(rng *rand.Rand) {
				defer wg.Done()
				for i := next.Add(1) - 1; i < limit; i = next.Add(1) - 1 {
					if err := submit(rng, int(i)); err != nil {
						errs <- err
						return
					}
				}
			}(rand.New(rand.NewSource(int64(w*callers + c))))
		}
		wg.Wait()
		next.Store(limit) // the callers overshoot by one each when they stop
		elapsed[w] = time.Since(start)
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		// Every submission has returned, so every commit is retired: the
		// window boundary is a quiescent point, for the closure and for the
		// recorded history alike.
		if p.ClosureSteps() != 0 || p.ClosureSlots() != 0 {
			t.Fatalf("window %d: %d live steps in %d slots at a quiescent point", w, p.ClosureSteps(), p.ClosureSlots())
		}
		rec := obs.rec.Swap(history.NewRecorder(pop.Nest))
		if w == 0 || w == windows/2 || w == windows-1 {
			rep, err := history.Check(rec.History())
			if err != nil {
				t.Fatalf("window %d: %v", w, err)
			}
			if !rep.Correctable || rep.Txns != perRound {
				t.Fatalf("window %d: %d txns, %s", w, rep.Txns, rep.Summary())
			}
		}
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	final := store.Values()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	if st := p.Stats(); st.Sealed != windows*perRound {
		t.Errorf("sealed %d of %d committed transactions", st.Sealed, windows*perRound)
	}
	if obs.maxSteps > maxLive || obs.maxSlots > 2*maxLive+64 {
		t.Errorf("closure peaked at %d live steps in %d slots; bound %d / %d", obs.maxSteps, obs.maxSlots, maxLive, 2*maxLive+64)
	}
	median := func(d []time.Duration) time.Duration {
		d = append([]time.Duration(nil), d...)
		sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
		return d[len(d)/2]
	}
	first, last := median(elapsed[:5]), median(elapsed[windows-5:])
	t.Logf("peak %d live steps / %d slots; window medians: first five %v, last five %v; %d waits, %d aborts",
		obs.maxSteps, obs.maxSlots, first, last, p.Stats().Waits, p.Stats().Aborts)
	if last > 2*first {
		t.Errorf("the last windows take %v, the first %v: cost grows with the run", last, first)
	}
	var total model.Value
	for _, x := range pop.Accounts {
		total += final[x]
	}
	if total != world.Total() {
		t.Errorf("accounts hold %d, the bank started with %d", total, world.Total())
	}
	if len(audits) < windows*perRound/55 {
		t.Errorf("only %d bank audits ran", len(audits))
	}
	for _, res := range audits {
		if final[res] != world.Total() {
			t.Errorf("%s recorded %d, the bank holds %d", res, final[res], world.Total())
		}
	}
}

// TestRecorderSurvivesDeadlineBeforeFirstGrant: a resident session's
// transaction withdrawn at its deadline while still waiting for its FIRST
// grant performs nothing, so the observer sees an abort and no step. The
// recorded history must still give it a level row: validate and check clean.
func TestRecorderSurvivesDeadlineBeforeFirstGrant(t *testing.T) {
	n := nest.New(2)
	n.Add("d")
	rec := history.NewRecorder(n)
	s := NewSession(Config{Observer: rec}, &waitControl{}, breakpoint.Uniform{Levels: 2, C: 2}, NewVolatileStore(nil))
	p := &model.Scripted{Txn: "d", Ops: []model.Op{model.Add("x", 1)}}
	out, err := s.Submit(context.Background(), p, SubmitOpts{Deadline: time.Now().Add(20 * time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	if !out.DeadlineExceeded {
		t.Fatalf("want DeadlineExceeded, got %+v", out)
	}
	if err := s.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
	h := rec.History()
	if err := h.Validate(); err != nil {
		t.Fatalf("recorded history does not validate: %v", err)
	}
	if rep, err := history.Check(h); err != nil || !rep.Correctable {
		t.Fatalf("checker rejected the recorded history: %v %v", rep, err)
	}
}

package engine

import (
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"mla/internal/bank"
	"mla/internal/breakpoint"
	"mla/internal/coherent"
	"mla/internal/fault"
	"mla/internal/history"
	"mla/internal/model"
	"mla/internal/nest"
	"mla/internal/sched"
	"mla/internal/telemetry"
)

// TestEngineRunWithCrashesRecovers is the headline robustness test: a real
// concurrent banking run killed by two injected crashes, each tearing
// records off the durable tail, must recover, re-run only the uncommitted
// transactions, and still satisfy every workload invariant plus the
// offline Theorem 2 checker. Run with -race for the full payoff.
func TestEngineRunWithCrashesRecovers(t *testing.T) {
	params := bank.DefaultParams()
	params.Transfers = 10
	params.BankAudits = 1
	params.CreditorAudits = 1
	wl := bank.Generate(params)
	before := runtime.NumGoroutine()
	var ev hookCounts
	plan := CrashPlan{
		Cfg:  Config{Seed: 21, StepDelay: 20 * time.Microsecond, Observer: &ev},
		Spec: wl.Spec,
		Init: wl.Init,
		Faults: fault.Plan{
			Seed:         21,
			CrashAppends: []int64{5, 14},
			TearTail:     2,
		},
		NewControl: func() sched.Control { return sched.NewPreventer(wl.Nest, wl.Spec) },
	}
	out, err := RunWithCrashes(context.Background(), plan, wl.Programs)
	if err != nil {
		t.Fatal(err)
	}
	if out.Crashes != 2 {
		t.Errorf("crashes = %d, want 2", out.Crashes)
	}
	if out.TornTotal == 0 {
		t.Error("no records were torn off the tail")
	}
	if out.Rounds < 3 {
		t.Errorf("rounds = %d, want at least 3", out.Rounds)
	}
	if out.Committed != len(wl.Programs) || out.GaveUp != 0 {
		t.Fatalf("committed %d/%d (gave up %d)", out.Committed, len(wl.Programs), out.GaveUp)
	}
	if ev.crashes != out.Crashes || ev.recoveries != out.Crashes {
		t.Errorf("observer saw %d crashes / %d recoveries, result has %d", ev.crashes, ev.recoveries, out.Crashes)
	}
	// Each committed transaction contributes its steps exactly once, even
	// though crashed rounds re-ran the unlucky ones.
	seen := make(map[model.StepID]bool)
	for _, s := range out.Exec {
		if seen[s.ID()] {
			t.Fatalf("step %v appears twice in the stitched execution", s.ID())
		}
		seen[s.ID()] = true
	}
	inv := wl.Check(out.Exec, out.Final)
	if !inv.ConservationOK {
		t.Error("money not conserved across crashes")
	}
	if inv.AuditsInexact > 0 {
		t.Errorf("%d inexact audits", inv.AuditsInexact)
	}
	if inv.TraceValid != nil {
		t.Errorf("stitched trace invalid: %v", inv.TraceValid)
	}
	ok, err := coherent.Correctable(out.Exec, wl.Nest, wl.Spec)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("crash-recovery run admitted a non-correctable execution")
	}
	// No goroutine outlives the run — across every round.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// redoTracker flags any step performed by a transaction that already
// committed — with TearTail 0 every in-memory commit is durable, so a
// committed transaction must never run again in a later round.
type redoTracker struct {
	NopObserver
	committed map[model.TxnID]bool
	redone    []model.TxnID
}

func (r *redoTracker) StepPerformed(t model.TxnID, _ int, _ model.EntityID, _, _ int) {
	if r.committed[t] {
		r.redone = append(r.redone, t)
	}
}

func (r *redoTracker) CommitGroup(ids []model.TxnID) {
	for _, id := range ids {
		r.committed[id] = true
	}
}

// TestCountsAddSumsEveryField: RunWithCrashes sums the rounds' Counts
// through add, so a field add leaves out would carry no crashed round's
// count. Every field set to 1 and added twice must read 2.
func TestCountsAddSumsEveryField(t *testing.T) {
	var one, sum Counts
	v := reflect.ValueOf(&one).Elem()
	for i := range v.NumField() {
		v.Field(i).SetInt(1)
	}
	sum.add(one)
	sum.add(one)
	s := reflect.ValueOf(sum)
	for i := range s.NumField() {
		if got := s.Field(i).Int(); got != 2 {
			t.Errorf("%s sums to %d, want 2: add leaves it out", s.Type().Field(i).Name, got)
		}
	}
}

func TestEngineCrashCommittedNotRedone(t *testing.T) {
	params := bank.DefaultParams()
	params.Transfers = 10
	params.BankAudits = 0
	params.CreditorAudits = 0
	wl := bank.Generate(params)
	tr := &redoTracker{committed: make(map[model.TxnID]bool)}
	plan := CrashPlan{
		Cfg:  Config{Seed: 5, StepDelay: 20 * time.Microsecond, Observer: tr},
		Spec: wl.Spec,
		Init: wl.Init,
		Faults: fault.Plan{
			Seed:         5,
			CrashAppends: []int64{8, 20},
			// TearTail 0: the durable log and the in-memory commit history
			// agree, so the tracker's judgement is exact.
		},
		NewControl: func() sched.Control { return sched.NewPreventer(wl.Nest, wl.Spec) },
	}
	out, err := RunWithCrashes(context.Background(), plan, wl.Programs)
	if err != nil {
		t.Fatal(err)
	}
	if out.Committed != len(wl.Programs) {
		t.Fatalf("committed %d/%d", out.Committed, len(wl.Programs))
	}
	if len(tr.redone) > 0 {
		t.Errorf("committed transactions re-ran after recovery: %v", tr.redone)
	}
	if out.Crashes < 1 {
		t.Error("no crash fired; the test exercised nothing")
	}
}

// TestEngineWallClockCrash: the time-budget crash kills a slowed-down run
// mid-flight; recovery completes the workload.
func TestEngineWallClockCrash(t *testing.T) {
	params := bank.DefaultParams()
	params.Transfers = 8
	params.BankAudits = 0
	params.CreditorAudits = 0
	wl := bank.Generate(params)
	plan := CrashPlan{
		Cfg:  Config{Seed: 9, StepDelay: 5 * time.Millisecond},
		Spec: wl.Spec,
		Init: wl.Init,
		Faults: fault.Plan{
			Seed:       9,
			CrashAfter: 4 * time.Millisecond,
			TearTail:   1,
		},
		NewControl: func() sched.Control { return sched.NewPreventer(wl.Nest, wl.Spec) },
	}
	out, err := RunWithCrashes(context.Background(), plan, wl.Programs)
	if err != nil {
		t.Fatal(err)
	}
	if out.Crashes != 1 {
		t.Errorf("crashes = %d, want 1 (wall-clock budget fires once)", out.Crashes)
	}
	if out.Committed != len(wl.Programs) {
		t.Fatalf("committed %d/%d", out.Committed, len(wl.Programs))
	}
	inv := wl.Check(out.Exec, out.Final)
	if !inv.ConservationOK || inv.TraceValid != nil {
		t.Errorf("invariants violated: conservation=%v trace=%v", inv.ConservationOK, inv.TraceValid)
	}
}

// TestEngineTransientFaultsRetried: a moderate transient-error rate slows
// the run but every step eventually goes through; the run completes with
// no give-ups and counts the injected faults.
func TestEngineTransientFaultsRetried(t *testing.T) {
	params := bank.DefaultParams()
	params.Transfers = 8
	params.BankAudits = 0
	params.CreditorAudits = 0
	wl := bank.Generate(params)
	tel := telemetry.New()
	cfg := Config{
		Seed:     3,
		Observer: NewTelemetryObserver(tel, "faults"),
		Faults:   fault.New(fault.Plan{Seed: 3, StepErrorRate: 0.3}),
	}
	c := sched.NewPreventer(wl.Nest, wl.Spec)
	res, err := Run(context.Background(), cfg, wl.Programs, c, wl.Spec, wl.Init)
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed != len(wl.Programs) || res.GaveUp != 0 {
		t.Fatalf("committed %d/%d (gave up %d)", res.Committed, len(wl.Programs), res.GaveUp)
	}
	if res.FaultsInjected == 0 {
		t.Error("a 30%% error rate injected nothing")
	}
	if got := len(spansByCat(tel.Trace.Spans())["fault"]); got != res.FaultsInjected {
		t.Errorf("fault spans = %d, result = %d", got, res.FaultsInjected)
	}
	inv := wl.Check(res.Exec, res.Final)
	if !inv.ConservationOK || inv.TraceValid != nil {
		t.Errorf("invariants violated under transient faults")
	}
}

// TestEngineGiveUpInsteadOfLivelock: with every step attempt failing, the
// restart budget parks each transaction and the run returns GaveUp ==
// len(programs) quickly — graceful degradation, not a timeout.
func TestEngineGiveUpInsteadOfLivelock(t *testing.T) {
	progs := []model.Program{
		&model.Scripted{Txn: "a", Ops: []model.Op{model.Add("x", 1)}},
		&model.Scripted{Txn: "b", Ops: []model.Op{model.Add("x", 2)}},
		&model.Scripted{Txn: "c", Ops: []model.Op{model.Add("y", 3)}},
	}
	tel := telemetry.New()
	cfg := Config{
		Seed:        1,
		MaxRestarts: 2,
		Observer:    NewTelemetryObserver(tel, "gaveup"),
		Faults:      fault.New(fault.Plan{Seed: 1, StepErrorRate: 1.0}),
	}
	spec := breakpoint.Uniform{Levels: 2, C: 2}
	start := time.Now()
	res, err := Run(context.Background(), cfg, progs, sched.NewTwoPhase(), spec, map[model.EntityID]model.Value{})
	if err != nil {
		t.Fatal(err)
	}
	if res.GaveUp != len(progs) || res.Committed != 0 {
		t.Fatalf("gaveUp=%d committed=%d, want %d/0", res.GaveUp, res.Committed, len(progs))
	}
	if got := len(spansByCat(tel.Trace.Spans())["gaveup"]); got != res.GaveUp {
		t.Errorf("gaveup spans = %d, result = %d", got, res.GaveUp)
	}
	if len(res.Exec) != 0 {
		t.Errorf("parked transactions contributed %d steps", len(res.Exec))
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("give-up path took %v; should be far below the timeout", elapsed)
	}
	if res.FaultsInjected == 0 {
		t.Error("no faults recorded despite rate 1.0")
	}
}

// TestEngineCrashGiveUpTerminal: give-ups in the completing round of a
// crash plan surface in CrashResult.GaveUp rather than failing the run.
func TestEngineCrashGiveUpTerminal(t *testing.T) {
	progs := []model.Program{
		&model.Scripted{Txn: "a", Ops: []model.Op{model.Add("x", 1)}},
		&model.Scripted{Txn: "b", Ops: []model.Op{model.Add("y", 2)}},
	}
	plan := CrashPlan{
		Cfg:        Config{Seed: 2, MaxRestarts: 2},
		Spec:       breakpoint.Uniform{Levels: 2, C: 2},
		Init:       map[model.EntityID]model.Value{},
		Faults:     fault.Plan{Seed: 2, StepErrorRate: 1.0},
		NewControl: func() sched.Control { return sched.NewTwoPhase() },
	}
	out, err := RunWithCrashes(context.Background(), plan, progs)
	if err != nil {
		t.Fatal(err)
	}
	if out.GaveUp != len(progs) || out.Committed != 0 {
		t.Fatalf("gaveUp=%d committed=%d, want %d/0", out.GaveUp, out.Committed, len(progs))
	}
}

// crashLog counts performed steps per step id and remembers the committed
// count the last recovery found.
type crashLog struct {
	NopObserver
	performed map[model.StepID]int
	recovered int
}

func (c *crashLog) StepPerformed(t model.TxnID, seq int, _ model.EntityID, _, _ int) {
	c.performed[model.StepID{Txn: t, Seq: seq}]++
}

func (c *crashLog) Recovered(_ int, committed int) { c.recovered = committed }

// TestEngineCrashAtCommitRecord puts the crash point on the flusher's
// commit-group record: the group is durable but never acked. Its members are
// handed over as decided, kept exactly once by the recovery filter, and never
// re-run, and Committed is the count recovery found.
func TestEngineCrashAtCommitRecord(t *testing.T) {
	prog := &model.Scripted{Txn: "t", Ops: []model.Op{model.Add("x", 1), model.Add("y", 2), model.Add("z", 3)}}
	log := &crashLog{performed: make(map[model.StepID]int)}
	plan := CrashPlan{
		Cfg:  Config{Seed: 4, Observer: log},
		Spec: breakpoint.Uniform{Levels: 2, C: 2},
		Init: map[model.EntityID]model.Value{"x": 0, "y": 0, "z": 0},
		// Three update records, then the commit record: the fourth append.
		Faults:     fault.Plan{Seed: 4, CrashAppends: []int64{4}},
		NewControl: func() sched.Control { return sched.NewTwoPhase() },
	}
	out, err := RunWithCrashes(context.Background(), plan, []model.Program{prog})
	if err != nil {
		t.Fatal(err)
	}
	if out.Crashes != 1 || out.Rounds != 2 || out.RedoneTxns != 0 {
		t.Fatalf("crashes=%d rounds=%d redone=%d, want 1/2/0", out.Crashes, out.Rounds, out.RedoneTxns)
	}
	if out.Committed != 1 || log.recovered != out.Committed {
		t.Fatalf("committed %d, recovery found %d, want 1", out.Committed, log.recovered)
	}
	seen := make(map[model.StepID]bool)
	for _, s := range out.Exec {
		if seen[s.ID()] {
			t.Fatalf("step %v appears twice in the stitched execution", s.ID())
		}
		seen[s.ID()] = true
	}
	if len(seen) != 3 {
		t.Fatalf("stitched execution holds %d steps, want 3", len(seen))
	}
	for id, n := range log.performed {
		if n != 1 {
			t.Errorf("step %v performed %d times: the durable commit re-ran", id, n)
		}
	}
	if f := out.Final; f["x"] != 1 || f["y"] != 2 || f["z"] != 3 {
		t.Errorf("final state %v, want x=1 y=2 z=3", f)
	}
}

// TestEngineCrashInRollbackOfParkedTxn: the crash point is the Abort marker
// of a transaction rolled back after its step kept failing, and it then
// parks. No submission fails on the dead medium, yet the round did not end
// durably: it must count as a crash and re-run in a fresh round.
func TestEngineCrashInRollbackOfParkedTxn(t *testing.T) {
	plan := CrashPlan{
		Cfg:        Config{Seed: 6, MaxRestarts: 1},
		Spec:       breakpoint.Uniform{Levels: 2, C: 2},
		Init:       map[model.EntityID]model.Value{"x": 0},
		Faults:     fault.Plan{Seed: 6, StepErrorRate: 1.0, CrashAppends: []int64{1}},
		NewControl: func() sched.Control { return sched.NewTwoPhase() },
	}
	prog := &model.Scripted{Txn: "a", Ops: []model.Op{model.Add("x", 1)}}
	out, err := RunWithCrashes(context.Background(), plan, []model.Program{prog})
	if err != nil {
		t.Fatal(err)
	}
	if out.Crashes != 1 || out.Rounds != 2 || out.GaveUp != 1 {
		t.Fatalf("crashes=%d rounds=%d gaveUp=%d, want 1/2/1", out.Crashes, out.Rounds, out.GaveUp)
	}
}

// TestCaptureEquivalence: one crash plan recorded in memory and into a
// spool file through the same Tee yields the same history — the same
// events, the same verdict, the same committed set — so what the batch
// paths check is what a server writes, crashes and torn commits included.
func TestCaptureEquivalence(t *testing.T) {
	params := bank.DefaultParams()
	params.Transfers = 10
	params.BankAudits = 1
	params.CreditorAudits = 1
	wl := bank.Generate(params)
	mem := history.NewRecorder(wl.Nest)
	path := filepath.Join(t.TempDir(), "history.spool")
	spool, err := history.OpenSpoolFile(path, wl.Nest.K())
	if err != nil {
		t.Fatal(err)
	}
	var txns []model.TxnID
	for _, p := range wl.Programs {
		txns = append(txns, p.ID())
	}
	for id, levels := range history.LevelPaths(wl.Nest, txns) {
		spool.Declare(id, levels)
	}
	var ev hookCounts
	plan := CrashPlan{
		Cfg:  Config{Seed: 21, StepDelay: 20 * time.Microsecond, Observer: Tee(&ev, mem, spool)},
		Spec: wl.Spec,
		Init: wl.Init,
		Faults: fault.Plan{
			Seed:         21,
			CrashAppends: []int64{5, 14},
			TearTail:     2,
		},
		NewControl: func() sched.Control { return sched.NewPreventer(wl.Nest, wl.Spec) },
	}
	out, err := RunWithCrashes(context.Background(), plan, wl.Programs)
	if err != nil {
		t.Fatal(err)
	}
	if out.Crashes != 2 || ev.crashes != 2 {
		t.Fatalf("crashes = %d (observed %d), want 2", out.Crashes, ev.crashes)
	}
	if err := spool.Close(); err != nil {
		t.Fatal(err)
	}
	hm := mem.History()
	hs, err := history.ReadSpoolFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(hm.Events, hs.Events) {
		t.Fatalf("in-memory history has %d events, spool %d, and they differ", len(hm.Events), len(hs.Events))
	}
	rm, err := history.Check(hm)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := history.Check(hs)
	if err != nil {
		t.Fatal(err)
	}
	if rm.Correctable != rs.Correctable || rm.Txns != rs.Txns || !rm.Correctable {
		t.Fatalf("verdicts differ or fail: in memory %s, spool %s", rm.Summary(), rs.Summary())
	}
	committed := func(h *history.History) map[model.TxnID]bool {
		exec, _, err := h.Committed()
		if err != nil {
			t.Fatal(err)
		}
		set := make(map[model.TxnID]bool)
		for _, s := range exec {
			set[s.Txn] = true
		}
		return set
	}
	cm, cs := committed(hm), committed(hs)
	if !reflect.DeepEqual(cm, cs) || len(cm) != out.Committed {
		t.Fatalf("committed sets differ: %d in memory, %d in the spool, %d by the run", len(cm), len(cs), out.Committed)
	}
}

// TestCrashHistoryNamesDurableCommits: a history recorded across crashes
// commits exactly the transactions the run made durable, including those
// whose commit record reached the WAL but whose ack a crash swallowed.
func TestCrashHistoryNamesDurableCommits(t *testing.T) {
	check := func(t *testing.T, plan string, rec *history.Recorder, out *CrashResult) {
		t.Helper()
		exec, _, err := rec.History().Committed()
		if err != nil {
			t.Fatal(err)
		}
		got, want := exec.Txns(), out.Exec.Txns()
		slices.Sort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) || len(want) != out.Committed {
			t.Errorf("%s: history commits %d transactions, the run %d (%d durable)", plan, len(got), len(want), out.Committed)
		}
	}
	t.Run("commit-record", func(t *testing.T) {
		n := nest.New(2)
		n.Add("t")
		rec := history.NewRecorder(n)
		plan := CrashPlan{
			Cfg:        Config{Seed: 4, Observer: rec},
			Spec:       breakpoint.Uniform{Levels: 2, C: 2},
			Init:       map[model.EntityID]model.Value{"x": 0, "y": 0, "z": 0},
			Faults:     fault.Plan{Seed: 4, CrashAppends: []int64{4}},
			NewControl: func() sched.Control { return sched.NewTwoPhase() },
		}
		prog := &model.Scripted{Txn: "t", Ops: []model.Op{model.Add("x", 1), model.Add("y", 2), model.Add("z", 3)}}
		out, err := RunWithCrashes(context.Background(), plan, []model.Program{prog})
		if err != nil {
			t.Fatal(err)
		}
		check(t, "commit record", rec, out)
	})
	t.Run("bank", func(t *testing.T) {
		for seed := int64(1); seed <= 30; seed++ {
			params := bank.DefaultParams()
			params.Seed = seed
			wl := bank.Generate(params)
			rec := history.NewRecorder(wl.Nest)
			plan := CrashPlan{
				Cfg:        Config{Seed: seed, Observer: rec},
				Spec:       wl.Spec,
				Init:       wl.Init,
				Faults:     fault.Plan{Seed: seed, CrashAppends: []int64{10, 20}, TearTail: 2},
				NewControl: func() sched.Control { return sched.NewPreventer(wl.Nest, wl.Spec) },
			}
			out, err := RunWithCrashes(context.Background(), plan, wl.Programs)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			check(t, fmt.Sprintf("seed %d", seed), rec, out)
		}
	})
}

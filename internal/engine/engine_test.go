package engine

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"mla/internal/bank"
	"mla/internal/breakpoint"
	"mla/internal/coherent"
	"mla/internal/conv"
	"mla/internal/model"
	"mla/internal/nest"
	"mla/internal/sched"
	"mla/internal/serial"
)

func mkControl(name string, n *nest.Nest, spec breakpoint.Spec) sched.Control {
	switch name {
	case "serial":
		return sched.NewSerial()
	case "2pl":
		return sched.NewTwoPhase()
	case "tso":
		return sched.NewTimestamp()
	case "prevent":
		return sched.NewPreventer(n, spec)
	case "detect":
		return sched.NewDetector(n, spec)
	}
	return sched.NewNone()
}

// TestEngineBankingAllControls is the concurrent counterpart of the
// simulator's banking test: a real goroutine-per-transaction run under each
// control must conserve money, keep audits exact, produce a valid value
// chain, and (for the sound controls) admit only correctable executions.
// Run with -race for the full payoff.
func TestEngineBankingAllControls(t *testing.T) {
	params := bank.DefaultParams()
	params.Transfers = 12
	params.BankAudits = 1
	params.CreditorAudits = 2
	for _, name := range []string{"serial", "2pl", "tso", "prevent", "detect"} {
		name := name
		t.Run(name, func(t *testing.T) {
			wl := bank.Generate(params)
			c := mkControl(name, wl.Nest, wl.Spec)
			// A small per-step delay forces genuine goroutine overlap.
			res, err := Run(context.Background(), Config{Seed: 7, StepDelay: 50 * time.Microsecond}, wl.Programs, c, wl.Spec, wl.Init)
			if err != nil {
				t.Fatal(err)
			}
			if res.Committed != len(wl.Programs) {
				t.Fatalf("committed %d/%d", res.Committed, len(wl.Programs))
			}
			inv := wl.Check(res.Exec, res.Final)
			if !inv.ConservationOK {
				t.Error("money not conserved")
			}
			if inv.AuditsInexact > 0 {
				t.Errorf("%d inexact audits", inv.AuditsInexact)
			}
			if inv.TraceValid != nil {
				t.Errorf("trace invalid: %v", inv.TraceValid)
			}
			ok, err := coherent.Correctable(res.Exec, wl.Nest, wl.Spec)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Error("admitted a non-correctable execution")
			}
			if name == "2pl" || name == "serial" || name == "tso" {
				if !serial.Serializable(res.Exec) {
					t.Error("serializable control produced a non-serializable execution")
				}
			}
		})
	}
}

func TestEngineCommitGroups(t *testing.T) {
	params := bank.DefaultParams()
	params.Transfers = 10
	params.Families = 1 // maximal within-class interleaving
	params.BankAudits = 0
	params.CreditorAudits = 0
	wl := bank.Generate(params)
	c := sched.NewPreventer(wl.Nest, wl.Spec)
	res, err := Run(context.Background(), Config{Seed: 3}, wl.Programs, c, wl.Spec, wl.Init)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, g := range res.CommitGroups {
		total += g
	}
	if total != res.Committed {
		t.Errorf("commit groups cover %d of %d commits", total, res.Committed)
	}
}

func TestEngineSimpleDisjoint(t *testing.T) {
	// Disjoint transactions: no conflicts, everything must sail through.
	var progs []model.Program
	n := nest.New(2)
	for i := 0; i < 8; i++ {
		id := model.TxnID(rune('a' + i))
		progs = append(progs, &model.Scripted{Txn: id, Ops: []model.Op{
			model.Add(model.EntityID("x"+string(id)), 1),
			model.Add(model.EntityID("y"+string(id)), 2),
		}})
		n.Add(id)
	}
	spec := breakpoint.Uniform{Levels: 2, C: 2}
	res, err := Run(context.Background(), Config{Seed: 1}, progs, sched.NewTwoPhase(), spec, map[model.EntityID]model.Value{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Aborts != 0 {
		t.Errorf("disjoint workload aborted %d times", res.Aborts)
	}
	if len(res.Exec) != 16 {
		t.Errorf("steps = %d", len(res.Exec))
	}
	for i := 0; i < 8; i++ {
		id := string(rune('a' + i))
		if res.Final[model.EntityID("x"+id)] != 1 || res.Final[model.EntityID("y"+id)] != 2 {
			t.Errorf("final values wrong for %s", id)
		}
	}
}

func TestEngineContendedCounter(t *testing.T) {
	// All transactions increment one counter twice: final value exact.
	var progs []model.Program
	n := nest.New(2)
	const txns = 10
	for i := 0; i < txns; i++ {
		id := model.TxnID(rune('a' + i))
		progs = append(progs, &model.Scripted{Txn: id, Ops: []model.Op{
			model.Add("ctr", 1), model.Add("ctr", 1),
		}})
		n.Add(id)
	}
	spec := breakpoint.Uniform{Levels: 2, C: 2}
	for _, name := range []string{"2pl", "detect", "prevent"} {
		c := mkControl(name, n, spec)
		res, err := Run(context.Background(), Config{Seed: 5}, progs, c, spec, map[model.EntityID]model.Value{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Final["ctr"] != 2*txns {
			t.Errorf("%s: ctr = %d, want %d", name, res.Final["ctr"], 2*txns)
		}
	}
}

// TestEngineConversations: conversations complete under the MLA controls
// with real goroutine concurrency (see internal/conv; serializable controls
// cannot run them, which TestConversationsUnderControls covers on the
// deterministic simulator).
func TestEngineConversations(t *testing.T) {
	p := conv.DefaultParams()
	p.Conversations = 3
	p.PollCap = 400 // real concurrency needs a generous poll budget
	for _, name := range []string{"prevent", "detect"} {
		wl := conv.Generate(p)
		c := mkControl(name, wl.Nest, wl.Spec)
		res, err := Run(context.Background(), Config{Seed: 11, StepDelay: 20 * time.Microsecond}, wl.Programs, c, wl.Spec, wl.Init)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out := wl.Check(res.Final)
		if out.Failed > 0 {
			t.Errorf("%s: %d conversations failed under the engine", name, out.Failed)
		}
		ok, err := coherent.Correctable(res.Exec, wl.Nest, wl.Spec)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Errorf("%s: non-correctable execution", name)
		}
	}
}

// stuckControl waits forever: used to exercise the engine's run timeout.
type stuckControl struct{ stats sched.Stats }

func (*stuckControl) Name() string             { return "stuck" }
func (*stuckControl) Begin(model.TxnID, int64) {}
func (s *stuckControl) Request(model.TxnID, int, model.EntityID) sched.Decision {
	return sched.Decision{Kind: sched.Wait}
}
func (*stuckControl) Performed(model.TxnID, int, model.EntityID, int) {}
func (*stuckControl) Finished(model.TxnID)                            {}
func (*stuckControl) Aborted([]model.TxnID)                           {}
func (s *stuckControl) Stats() *sched.Stats                           { return &s.stats }

func TestEngineTimeout(t *testing.T) {
	progs := []model.Program{
		&model.Scripted{Txn: "t", Ops: []model.Op{model.Add("x", 1)}},
	}
	spec := breakpoint.Uniform{Levels: 2, C: 2}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := Run(ctx, Config{}, progs, &stuckControl{}, spec, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("a permanently waiting control must time out, got %v", err)
	}
}

// stuckProgs builds n single-step programs for forced-timeout runs.
func stuckProgs(n int) []model.Program {
	progs := make([]model.Program, n)
	for i := range progs {
		id := model.TxnID(rune('a' + i))
		progs[i] = &model.Scripted{Txn: id, Ops: []model.Op{model.Add("x", 1)}}
	}
	return progs
}

// TestEngineTimeoutLeaksNoGoroutines is the lifecycle regression test: a
// forced-timeout run must stop and join every transaction goroutine before
// Run returns — previously they spun forever on the wait generation,
// mutating the shared store after Run had already given up.
func TestEngineTimeoutLeaksNoGoroutines(t *testing.T) {
	spec := breakpoint.Uniform{Levels: 2, C: 2}
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := Run(ctx, Config{}, stuckProgs(8), &stuckControl{}, spec, nil)
	if err == nil {
		t.Fatal("a permanently waiting control must time out")
	}
	// Run joins its workers; allow the runtime a moment to retire them.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after timeout: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestEngineCancelStopsRun: caller cancellation (not just the engine's own
// timeout) must stop a stuck run promptly and leak-free.
func TestEngineCancelStopsRun(t *testing.T) {
	spec := breakpoint.Uniform{Levels: 2, C: 2}
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := Run(ctx, Config{}, stuckProgs(4), &stuckControl{}, spec, nil)
	if err == nil {
		t.Fatal("a cancelled run must fail")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error should wrap context.Canceled, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cancelled run took %v to return", elapsed)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after cancel: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestEngineObserverAndHistograms: the observability layer — the run's
// counters agree with its execution and its samples, and every committed
// transaction contributes one latency and one wait-time sample.
func TestEngineObserverAndHistograms(t *testing.T) {
	params := bank.DefaultParams()
	params.Transfers = 10
	params.BankAudits = 1
	params.CreditorAudits = 1
	wl := bank.Generate(params)
	c := sched.NewPreventer(wl.Nest, wl.Spec)
	res, err := Run(context.Background(), Config{Seed: 13, StepDelay: 20 * time.Microsecond}, wl.Programs, c, wl.Spec, wl.Init)
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps < len(res.Exec) {
		t.Errorf("engine counted %d steps, surviving execution has %d", res.Steps, len(res.Exec))
	}
	if len(res.Latencies) != res.Committed || len(res.WaitTimes) != res.Committed {
		t.Errorf("histograms: %d latency and %d wait samples for %d commits",
			len(res.Latencies), len(res.WaitTimes), res.Committed)
	}
	lat := res.LatencySummary()
	if lat.N != res.Committed || lat.Max < lat.P50 || lat.P50 < 0 {
		t.Errorf("latency summary inconsistent: %+v", lat)
	}
	ws := res.WaitSummary()
	if ws.N != res.Committed {
		t.Errorf("wait summary has %d samples, want %d", ws.N, res.Committed)
	}
	var totalWait time.Duration
	for _, w := range res.WaitTimes {
		totalWait += w
	}
	if totalWait > res.Waited || (res.Waits == 0) != (res.Waited == 0) {
		t.Errorf("committed wait time %v, counted %d waits for %v", totalWait, res.Waits, res.Waited)
	}
}

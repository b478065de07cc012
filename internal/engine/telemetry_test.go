package engine

import (
	"context"
	"strconv"
	"strings"
	"testing"
	"time"

	"mla/internal/bank"
	"mla/internal/fault"
	"mla/internal/model"
	"mla/internal/sched"
	"mla/internal/telemetry"
)

func spansByCat(spans []telemetry.Span) map[string][]telemetry.Span {
	out := make(map[string][]telemetry.Span)
	for _, s := range spans {
		out[s.Cat] = append(out[s.Cat], s)
	}
	return out
}

// TestTelemetryObserverLifecycle runs a contended banking workload with the
// telemetry observer attached and checks its spans against the engine's own
// counts exactly: every engine event opened (and closed) the right number of
// spans, nothing is left open, and child spans nest inside their parents.
func TestTelemetryObserverLifecycle(t *testing.T) {
	params := bank.DefaultParams()
	params.Transfers = 12
	params.BankAudits = 1
	params.CreditorAudits = 1
	wl := bank.Generate(params)

	tel := telemetry.New()
	cfg := Config{
		Seed:     7,
		Observer: NewTelemetryObserver(tel, "lifecycle"),
		Faults:   fault.New(fault.Plan{Seed: 7, StepErrorRate: 0.05}),
	}
	res, err := Run(context.Background(), cfg, wl.Programs, sched.NewPreventer(wl.Nest, wl.Spec), wl.Spec, wl.Init)
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed != len(wl.Programs) {
		t.Fatalf("committed %d/%d", res.Committed, len(wl.Programs))
	}

	spans := spansByCat(tel.Trace.Spans())
	for _, s := range spans["txn"] {
		if s.Args["open"] == "true" {
			t.Errorf("txn span %q left open after the run", s.Name)
		}
	}
	// Exactly one span (or instant) per counted event, category by
	// category: the observer saw the events the engine counted.
	checks := []struct {
		cat  string
		want int
	}{
		{"run", 1},
		{"step", res.Steps},
		{"lock-wait", res.Waits},
		{"commit-group", len(res.CommitGroups)},
		{"abort", res.Aborts},
		{"fault", res.FaultsInjected},
		{"gaveup", res.GaveUp},
		{"crash", 0},
		{"recovery", 0},
	}
	for _, c := range checks {
		if got := len(spans[c.cat]); got != c.want {
			t.Errorf("%s spans = %d, engine counted %d", c.cat, got, c.want)
		}
	}
	if got := countArg(spans["step"], "cut", "0", false); got != res.Cuts {
		t.Errorf("%d step instants end a unit, engine counted %d cuts", got, res.Cuts)
	}
	if got := countArg(spans["abort"], "cascade", "true", true); got != res.Cascades {
		t.Errorf("%d abort instants are cascades, engine counted %d", got, res.Cascades)
	}
	// The Preventer delays transfers behind the audits' open units: a run
	// that never waits leaves the lock-wait count unchecked.
	if res.Waits == 0 || res.Waited <= 0 {
		t.Errorf("waits = %d (%v waited) on a contended workload", res.Waits, res.Waited)
	}
	if res.Cuts == 0 {
		t.Error("no breakpoint cuts counted on a breakpoint-bearing workload")
	}
	// Nearly every run restarts a transaction whose next attempt waits or
	// faults before its first step.
	checkAttemptNumbers(t, spans["txn"])

	// Nesting: every wait and unit span lies within its parent's bounds,
	// and parents resolve transitively up to the run span.
	byID := make(map[telemetry.SpanID]telemetry.Span)
	all := tel.Trace.Spans()
	for _, s := range all {
		byID[s.ID] = s
	}
	for _, s := range all {
		if s.Cat != "lock-wait" && s.Cat != "unit" {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			t.Fatalf("%s span %q has unknown parent %d", s.Cat, s.Name, s.Parent)
		}
		if s.Start < p.Start || s.End > p.End {
			t.Errorf("%s [%d,%d] escapes parent %s [%d,%d]", s.Cat, s.Start, s.End, p.Cat, p.Start, p.End)
		}
		hops := 0
		for cur := s; cur.Parent != 0; cur = byID[cur.Parent] {
			if _, ok := byID[cur.Parent]; !ok {
				t.Fatalf("broken parent chain from %s %q", s.Cat, s.Name)
			}
			if hops++; hops > 10 {
				t.Fatal("parent cycle")
			}
		}
	}
}

// TestTelemetryObserverCrashRecovery: one observer serves a whole crash
// plan — run spans per round, a crash instant per injected crash, and a
// recovery interval bracketing each recovery pass — and CrashResult sums
// every round's counts, the crashed rounds' included.
func TestTelemetryObserverCrashRecovery(t *testing.T) {
	params := bank.DefaultParams()
	params.Transfers = 10
	params.BankAudits = 1
	params.CreditorAudits = 1
	wl := bank.Generate(params)

	tel := telemetry.New()
	plan := CrashPlan{
		Cfg: Config{
			Seed:      21,
			StepDelay: 20 * time.Microsecond,
			Observer:  NewTelemetryObserver(tel, "crash"),
		},
		Spec: wl.Spec,
		Init: wl.Init,
		Faults: fault.Plan{
			Seed:          21,
			CrashAppends:  []int64{5, 14},
			TearTail:      2,
			StepErrorRate: 0.05,
		},
		NewControl: func() sched.Control { return sched.NewPreventer(wl.Nest, wl.Spec) },
	}
	out, err := RunWithCrashes(context.Background(), plan, wl.Programs)
	if err != nil {
		t.Fatal(err)
	}
	if out.Crashes != 2 {
		t.Fatalf("crashes = %d, want 2", out.Crashes)
	}
	spans := spansByCat(tel.Trace.Spans())
	if got := len(spans["run"]); got != out.Rounds {
		t.Errorf("run spans = %d, rounds = %d", got, out.Rounds)
	}
	if got := len(spans["crash"]); got != out.Crashes {
		t.Errorf("crash spans = %d, crashes = %d", got, out.Crashes)
	}
	if got := len(spans["recovery"]); got != out.Crashes {
		t.Errorf("recovery spans = %d, want %d", got, out.Crashes)
	}
	for _, c := range []struct {
		cat  string
		want int
	}{
		{"step", out.Steps},
		{"lock-wait", out.Waits},
		{"abort", out.Aborts},
		{"fault", out.FaultsInjected},
		{"gaveup", out.GaveUp},
	} {
		if got := len(spans[c.cat]); got != c.want {
			t.Errorf("%s spans = %d across the rounds, CrashResult counts %d", c.cat, got, c.want)
		}
	}
	if got := countArg(spans["step"], "cut", "0", false); got != out.Cuts {
		t.Errorf("%d step instants end a unit across the rounds, CrashResult counts %d cuts", got, out.Cuts)
	}
	if got := countArg(spans["abort"], "cascade", "true", true); got != out.Cascades {
		t.Errorf("%d abort instants are cascades across the rounds, CrashResult counts %d", got, out.Cascades)
	}
	if out.Steps <= len(out.Exec) {
		t.Errorf("CrashResult counts %d steps for %d durable ones: the crashed rounds' work is missing", out.Steps, len(out.Exec))
	}
	// The audits make the Preventer delay transfers and the fault plan
	// injects step errors: zero counts would leave the sums above unchecked.
	if out.Cuts == 0 || out.Waits == 0 || out.Waited <= 0 || out.FaultsInjected == 0 {
		t.Errorf("cuts %d, waits %d (%v waited), faults %d: a count the sum must carry is zero",
			out.Cuts, out.Waits, out.Waited, out.FaultsInjected)
	}
	for _, s := range spans["recovery"] {
		if s.Args["open"] == "true" {
			t.Error("recovery span left open")
		}
		if s.Args["durable_commits"] == "" {
			t.Error("recovery span missing durable_commits")
		}
	}
	// Interrupted transactions were sealed by RunEnded, not leaked.
	for _, s := range spans["txn"] {
		if s.Args["open"] == "true" {
			t.Errorf("txn span %q leaked across rounds", s.Name)
		}
	}
	if out.RedoneTxns == 0 {
		t.Error("no attempt redone across a crash: the attempt numbering goes unchecked")
	}
	checkAttemptNumbers(t, spans["txn"])
}

// countArg counts the spans whose Args[key] equals val (is, true) or
// differs from it (is, false).
func countArg(spans []telemetry.Span, key, val string, is bool) int {
	n := 0
	for _, s := range spans {
		if (s.Args[key] == val) == is {
			n++
		}
	}
	return n
}

// checkAttemptNumbers asserts that each transaction's txn spans ("T#n"), in
// start order, carry strictly increasing attempt numbers: no attempt reuses
// an earlier one's name, within a run or across crash rounds.
func checkAttemptNumbers(t *testing.T, txnSpans []telemetry.Span) {
	t.Helper()
	last := make(map[string]int)
	for _, s := range txnSpans {
		txn, num, _ := strings.Cut(s.Name, "#")
		n, err := strconv.Atoi(num)
		if err != nil {
			t.Fatalf("txn span %q has no attempt number", s.Name)
		}
		if prev, ok := last[txn]; ok && n <= prev {
			t.Errorf("txn span %q starts after attempt %d of %s", s.Name, prev, txn)
		}
		last[txn] = n
	}
}

// hookCounts counts the hooks the wiring tests check; the engine counts
// everything else itself.
type hookCounts struct {
	NopObserver
	runs, crashes, recoveries int
}

func (h *hookCounts) RunEnded(int, int, time.Duration) { h.runs++ }
func (h *hookCounts) Crashed(int, int)                 { h.crashes++ }
func (h *hookCounts) Recovered(int, int)               { h.recoveries++ }

// TestTeeFiltersDisabledTelemetry: a nil sink produces a nil Observer; Tee
// must drop it and collapse to the sole live observer, and a run given it
// directly must treat it as disabled.
func TestTeeFiltersDisabledTelemetry(t *testing.T) {
	var ev hookCounts
	obs := Tee(&ev, NewTelemetryObserver(nil, ""))
	if obs != Observer(&ev) {
		t.Fatalf("Tee did not collapse to the live observer: %T", obs)
	}
	if Tee(NewTelemetryObserver(nil, "")) != nil {
		t.Fatal("Tee of only disabled observers should be nil")
	}
	progs := []model.Program{
		&model.Scripted{Txn: "a", Ops: []model.Op{model.Add("x", 1)}},
	}
	res, err := Run(context.Background(), Config{Seed: 1, Observer: obs}, progs,
		sched.NewTwoPhase(), nil, map[model.EntityID]model.Value{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed != 1 || ev.runs != 1 {
		t.Fatalf("committed %d, runs %d", res.Committed, ev.runs)
	}
	// Straight into Config.Observer, with no Tee to drop it.
	direct := NewTelemetryObserver(nil, "")
	if direct != nil {
		t.Fatalf("a nil sink gave a non-nil %T", direct)
	}
	res, err = Run(context.Background(), Config{Seed: 1, Observer: direct}, progs,
		sched.NewTwoPhase(), nil, map[model.EntityID]model.Value{})
	if err != nil || res.Committed != 1 {
		t.Fatalf("committed %d, err %v", res.Committed, err)
	}
}

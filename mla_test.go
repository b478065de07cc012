package mla_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"mla"
	"mla/internal/model"
	"mla/internal/serial"
)

// TestPublicAPI exercises the re-exported façade end to end: build a nest
// and breakpoints, record an execution, and query atomicity/correctability.
func TestPublicAPI(t *testing.T) {
	n := mla.NewNest(3)
	n.Add("t1", "g")
	n.Add("t2", "g")
	spec, err := mla.NewSpec(n, mla.Uniform(3, 2))
	if err != nil {
		t.Fatal(err)
	}
	if spec.K() != 3 {
		t.Errorf("K = %d", spec.K())
	}
	e := mla.Execution{
		{Txn: "t1", Seq: 1, Entity: "x"},
		{Txn: "t2", Seq: 1, Entity: "x"},
		{Txn: "t2", Seq: 2, Entity: "y"},
		{Txn: "t1", Seq: 2, Entity: "y"},
	}
	atomic, err := spec.Atomic(e)
	if err != nil {
		t.Fatal(err)
	}
	if !atomic {
		t.Error("same-class ping-pong with per-step breakpoints is atomic")
	}
	ser := mla.Serializability([]mla.TxnID{"t1", "t2"})
	ok, err := ser.Correctable(e)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("the same execution is not serializable")
	}
}

func TestBreakpointFunc(t *testing.T) {
	calls := 0
	bp := mla.BreakpointFunc(3, func(_ mla.TxnID, prefix []mla.Step) int {
		calls++
		if len(prefix) == 1 {
			return 2
		}
		return 3
	})
	if bp.K() != 3 {
		t.Errorf("K = %d", bp.K())
	}
	if c := bp.CutAfter("t", []mla.Step{{Txn: "t", Seq: 1}}); c != 2 {
		t.Errorf("cut = %d", c)
	}
	if calls != 1 {
		t.Errorf("calls = %d", calls)
	}
}

func TestCompatibilitySetsFacade(t *testing.T) {
	spec := mla.CompatibilitySets([][]mla.TxnID{{"a", "b"}, {"c"}})
	e := mla.Execution{
		{Txn: "a", Seq: 1, Entity: "x"},
		{Txn: "c", Seq: 1, Entity: "x"},
		{Txn: "a", Seq: 2, Entity: "x"},
	}
	ok, err := spec.Correctable(e)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("cross-class interruption must not be correctable")
	}
	w, ok, err := spec.Witness(mla.Execution{
		{Txn: "a", Seq: 1, Entity: "x"},
		{Txn: "b", Seq: 1, Entity: "x", Before: 0, After: 0},
	})
	if err != nil || !ok {
		t.Fatalf("witness: %v %v", ok, err)
	}
	if len(w) != 2 {
		t.Errorf("witness = %v", w)
	}
	_ = model.Execution(w) // the alias is the real type
}

func TestFacadeProgramHelpers(t *testing.T) {
	p1 := &mla.Scripted{Txn: "a", Ops: []mla.Op{mla.Add("x", 5), mla.Write("y", 9)}}
	p2 := &mla.Scripted{Txn: "b", Ops: []mla.Op{mla.Read("x")}}
	vals := map[mla.EntityID]mla.Value{"x": 1}
	e, err := mla.RunSerial([]mla.Program{p1, p2}, vals)
	if err != nil {
		t.Fatal(err)
	}
	if vals["x"] != 6 || vals["y"] != 9 {
		t.Errorf("vals = %v", vals)
	}
	if len(e) != 3 {
		t.Errorf("steps = %d", len(e))
	}
	vals2 := map[mla.EntityID]mla.Value{"x": 1}
	e2, err := mla.Interleave([]mla.Program{p1, p2}, vals2, []int{0, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	out := mla.Timeline(e2, mla.Uniform(2, 2), 0)
	if out == "" || !strings.Contains(out, "a") {
		t.Errorf("timeline:\n%s", out)
	}
}

func TestFacadeCheckResult(t *testing.T) {
	spec := mla.Serializability([]mla.TxnID{"t"})
	res, err := spec.Check(mla.Execution{{Txn: "t", Seq: 1, Entity: "x"}})
	if err != nil {
		t.Fatal(err)
	}
	var cr *mla.CheckResult = res // the alias is usable externally
	if !cr.Atomic || !cr.Correctable {
		t.Error("trivial execution must be atomic")
	}
}

// runCount counts the runs an observer saw end.
type runCount struct {
	mla.NopObserver
	runs int
}

func (r *runCount) RunEnded(int, int, time.Duration) { r.runs++ }

// TestWithTelemetry: the façade attaches a telemetry sink to a run config
// (teeing with any observer already present) and the run records spans; a
// nil sink leaves the config untouched.
func TestWithTelemetry(t *testing.T) {
	progs := []mla.Program{
		&mla.Scripted{Txn: "a", Ops: []mla.Op{mla.Add("x", 1), mla.Add("y", 1)}},
		&mla.Scripted{Txn: "b", Ops: []mla.Op{mla.Add("y", 1), mla.Add("x", 1)}},
	}
	ctl, err := mla.NewControl(mla.ControlTwoPhase, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	tel := mla.NewTelemetry()
	var ev runCount
	cfg := mla.WithTelemetry(mla.RunConfig{Seed: 3, Observer: &ev}, tel, "facade")
	res, err := mla.Run(context.Background(), cfg, progs, ctl, nil,
		map[mla.EntityID]mla.Value{"x": 0, "y": 0})
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed != len(progs) {
		t.Fatalf("committed %d/%d", res.Committed, len(progs))
	}
	if ev.runs != 1 {
		t.Errorf("teed observer missed the run (runs=%d)", ev.runs)
	}
	var sawRun bool
	groups := 0
	for _, s := range tel.Trace.Spans() {
		switch s.Cat {
		case "run":
			sawRun = true
		case "commit-group":
			groups++
		}
	}
	if !sawRun {
		t.Error("no run span recorded")
	}
	if groups != len(res.CommitGroups) {
		t.Errorf("commit-group spans = %d, result has %d groups", groups, len(res.CommitGroups))
	}
	// nil sink: config unchanged, observer untouched.
	plain := mla.RunConfig{Seed: 3, Observer: &ev}
	if got := mla.WithTelemetry(plain, nil, ""); got.Observer != plain.Observer {
		t.Error("WithTelemetry(nil) altered the config")
	}
}

// Spec and the two named special cases of Section 4.3, checked against the
// classical notions they must coincide with.

func st(t model.TxnID, seq int, x model.EntityID) model.Step {
	return model.Step{Txn: t, Seq: seq, Entity: x}
}

func TestNewSpecValidates(t *testing.T) {
	n := mla.NewNest(3)
	n.Add("t", "g")
	if _, err := mla.NewSpec(n, mla.Uniform(2, 2)); err == nil {
		t.Error("k mismatch must be rejected")
	}
	if _, err := mla.NewSpec(mla.NewNest(3), mla.Uniform(3, 2)); err == nil {
		t.Error("empty nest must be rejected")
	}
	s, err := mla.NewSpec(n, mla.Uniform(3, 2))
	if err != nil {
		t.Fatal(err)
	}
	if s.K() != 3 {
		t.Errorf("K = %d", s.K())
	}
}

func TestSerializabilitySpec(t *testing.T) {
	s := mla.Serializability([]model.TxnID{"t1", "t2"})
	// Non-serializable interleaving.
	bad := model.Execution{
		st("t1", 1, "x"), st("t2", 1, "x"),
		st("t2", 2, "y"), st("t1", 2, "y"),
	}
	ok, err := s.Correctable(bad)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("k=2 spec must reject the classic cycle")
	}
	if serial.Serializable(bad) {
		t.Error("fixture error: execution should not be serializable")
	}
	good := model.Execution{
		st("t1", 1, "x"), st("t2", 1, "x"), st("t1", 2, "y"), st("t2", 2, "y"),
	}
	ok, err = s.Correctable(good)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("serializable execution must be k=2 correctable")
	}
	atomic, err := s.Atomic(good)
	if err != nil {
		t.Fatal(err)
	}
	if atomic {
		t.Error("interleaved execution is not serial, hence not 2-level atomic")
	}
	w, ok, err := s.Witness(good)
	if err != nil || !ok {
		t.Fatalf("witness: %v %v", ok, err)
	}
	if !isSerial(w) {
		t.Errorf("k=2 witness must be serial: %v", w)
	}
}

func TestCompatibilitySets(t *testing.T) {
	s := mla.CompatibilitySets([][]model.TxnID{{"t1", "t2"}, {"t3"}})
	if s.K() != 3 {
		t.Fatalf("K = %d", s.K())
	}
	// t1 and t2 share a class: arbitrary interleaving is atomic.
	e := model.Execution{
		st("t1", 1, "x"), st("t2", 1, "x"), st("t1", 2, "x"), st("t2", 2, "x"),
	}
	atomic, err := s.Atomic(e)
	if err != nil {
		t.Fatal(err)
	}
	if !atomic {
		t.Error("same-class transactions interleave arbitrarily under [G]")
	}
	// t3 is in another class: interleaving with it must serialize.
	f := model.Execution{
		st("t1", 1, "x"), st("t3", 1, "x"), st("t1", 2, "x"), st("t3", 2, "x"),
	}
	ok, err := s.Correctable(f)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("cross-class ping-pong must not be correctable")
	}
}

func TestCheckResultFields(t *testing.T) {
	s := mla.Serializability([]model.TxnID{"t1"})
	e := model.Execution{st("t1", 1, "x"), st("t1", 2, "y")}
	res, err := s.Check(e)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Atomic || !res.Correctable {
		t.Error("single-transaction execution is trivially atomic")
	}
	if res.Inst.N() != 2 {
		t.Errorf("instance has %d steps", res.Inst.N())
	}
	a, okA := res.Inst.Index("t1", 1)
	b, okB := res.Inst.Index("t1", 2)
	if !okA || !okB || !res.Rel.Has(a, b) {
		t.Error("program order missing from closure")
	}
}

// isSerial reports whether e is a serial execution: the steps of each
// transaction are contiguous.
func isSerial(e model.Execution) bool {
	seen := make(map[model.TxnID]bool)
	for i, s := range e {
		if i == 0 || s.Txn != e[i-1].Txn {
			if seen[s.Txn] {
				return false
			}
			seen[s.Txn] = true
		}
	}
	return true
}

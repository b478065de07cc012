package sim

import (
	"strings"
	"testing"

	"mla/internal/breakpoint"
	"mla/internal/model"
	"mla/internal/nest"
	"mla/internal/sched"
)

func TestMaxTimeExceeded(t *testing.T) {
	// A Serial control with an absurdly small horizon cannot finish.
	progs, init := smallWorkload()
	_, spec := k2Spec(progs)
	cfg := DefaultConfig()
	cfg.MaxTime = 5
	_, err := Run(cfg, progs, sched.NewSerial(), spec, init)
	if err == nil || !strings.Contains(err.Error(), "MaxTime") {
		t.Fatalf("expected MaxTime error, got %v", err)
	}
}

func TestNilSpecWithBaseline(t *testing.T) {
	// Controls that ignore breakpoints run fine without a spec.
	progs, init := smallWorkload()
	res, err := Run(DefaultConfig(), progs, sched.NewTwoPhase(), nil, init)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Committed != len(progs) {
		t.Fatalf("committed %d", res.Stats.Committed)
	}
}

func TestOwnerFunc(t *testing.T) {
	f := OwnerFunc(4)
	for _, x := range []model.EntityID{"a", "b", "acct/f01/a02"} {
		p := f(x)
		if p < 0 || p >= 4 {
			t.Errorf("owner(%s) = %d", x, p)
		}
		if f(x) != p {
			t.Error("owner not stable")
		}
	}
	if OwnerFunc(0)("x") != 0 {
		t.Error("zero processors must clamp to one")
	}
}

func TestEmptyProgramList(t *testing.T) {
	res, err := Run(DefaultConfig(), nil, sched.NewNone(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Committed != 0 || len(res.Exec) != 0 {
		t.Errorf("empty run: %+v", res.Stats)
	}
}

func TestCommitGroupsCoverCommits(t *testing.T) {
	progs, init := smallWorkload()
	n, spec := k2Spec(progs)
	res, err := Run(DefaultConfig(), progs, sched.NewDetector(n, spec), spec, init)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, g := range res.CommitGroups {
		if g < 1 {
			t.Errorf("empty commit group")
		}
		total += g
	}
	if total != res.Stats.Committed {
		t.Errorf("groups cover %d of %d", total, res.Stats.Committed)
	}
}

// TestPerStepBreakpointReporting: the control must receive the spec's
// coarseness after every non-final step and 0 after the last.
func TestPerStepBreakpointReporting(t *testing.T) {
	rec := &recordingControl{}
	progs := []model.Program{
		&model.Scripted{Txn: "t", Ops: []model.Op{model.Add("x", 1), model.Add("y", 1), model.Add("z", 1)}},
	}
	n := nest.New(3)
	n.Add("t", "g")
	spec := breakpoint.Func{Levels: 3, Fn: func(_ model.TxnID, prefix []model.Step) int {
		return 2 + len(prefix)%2 // alternating 3, 2
	}}
	_ = n
	if _, err := Run(DefaultConfig(), progs, rec, spec, nil); err != nil {
		t.Fatal(err)
	}
	want := []int{3, 2, 0}
	if len(rec.cuts) != len(want) {
		t.Fatalf("cuts = %v", rec.cuts)
	}
	for i, c := range want {
		if rec.cuts[i] != c {
			t.Errorf("cut %d = %d, want %d", i, rec.cuts[i], c)
		}
	}
}

// recordingControl grants everything and records the reported cuts.
type recordingControl struct {
	cuts  []int
	stats sched.Stats
}

func (*recordingControl) Name() string             { return "recording" }
func (*recordingControl) Begin(model.TxnID, int64) {}
func (r *recordingControl) Request(model.TxnID, int, model.EntityID) sched.Decision {
	return sched.Decision{Kind: sched.Grant}
}
func (r *recordingControl) Performed(_ model.TxnID, _ int, _ model.EntityID, cut int) {
	r.cuts = append(r.cuts, cut)
}
func (*recordingControl) Finished(model.TxnID)  {}
func (*recordingControl) Aborted([]model.TxnID) {}
func (r *recordingControl) Stats() *sched.Stats { return &r.stats }

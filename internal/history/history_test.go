package history

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mla/internal/bank"
	"mla/internal/breakpoint"
	"mla/internal/coherent"
	"mla/internal/model"
	"mla/internal/nest"
)

// mk builds a k=3 history of two 2-step transactions over entities x and y,
// with the given shared/distinct level-2 classes, boundary coarsenesses,
// and interleaving. t1 accesses x then y; t2 accesses y then x — the
// conflict pattern whose interleaving t1.1 t2.1 t2.2 t1.2 is the canonical
// non-serializable cross.
func mk(sameClass bool, t1cut, t2cut int, order []string) *History {
	lv := map[model.TxnID][]string{"t1": {"A"}, "t2": {"A"}}
	if !sameClass {
		lv["t2"] = []string{"B"}
	}
	h := &History{Format: Format, K: 3, Levels: lv}
	seq := map[model.TxnID]int{}
	ent := map[model.TxnID][]model.EntityID{"t1": {"x", "y"}, "t2": {"y", "x"}}
	cut := map[model.TxnID]int{"t1": t1cut, "t2": t2cut}
	for _, t := range order {
		id := model.TxnID(t)
		seq[id]++
		c := 0
		if seq[id] == 1 {
			c = cut[id]
		}
		h.Events = append(h.Events, Event{
			Kind: KindStep, Txn: id, Seq: seq[id],
			Entity: ent[id][seq[id]-1], Cut: c,
		})
	}
	h.Events = append(h.Events, Event{Kind: KindCommit, Txns: []model.TxnID{"t1", "t2"}})
	return h
}

var cross = []string{"t1", "t2", "t2", "t1"}

// TestLevelPairAcceptReject drives the same interleaving through every
// level pair and boundary shape: what the declared levels permit must be
// accepted, what they forbid must produce a witness cycle.
func TestLevelPairAcceptReject(t *testing.T) {
	cases := []struct {
		name    string
		h       *History
		correct bool
		atomic  bool
	}{
		// Same class (level 2) with coarseness-2 boundaries after each
		// first step: the cross interleaves exactly at permitted
		// breakpoints.
		{"level2-with-boundaries", mk(true, 2, 2, cross), true, true},
		// Same class but unbroken units (no cut recorded → coarseness k):
		// nobody may interrupt below level 3, and both transactions do.
		{"level2-unbroken-units", mk(true, 0, 0, cross), false, false},
		// Different classes (level 1): boundaries exist but B(1) never
		// cuts — the pair requires mutual serializability it doesn't have.
		{"level1-with-boundaries", mk(false, 2, 2, cross), false, false},
		// Different classes, serial order: always fine.
		{"level1-serial", mk(false, 0, 0, []string{"t1", "t1", "t2", "t2"}), true, true},
		// Coarseness-3 boundaries are cut only in B(3); at level 2 they do
		// not license the interruption.
		{"level2-coarse3-boundaries", mk(true, 3, 3, cross), false, false},
		// Mixed boundary coarseness: in the cross only t1 is interrupted,
		// at its coarseness-2 cut, while t2 runs contiguously — t2's
		// unbroken unit never matters, so this is atomic as recorded.
		{"level2-mixed-boundaries", mk(true, 2, 3, cross), true, true},
		// Same shape with t2's boundary unrecorded (defaults to k).
		{"level2-one-sided", mk(true, 2, 0, cross), true, true},
		// Correctable but not atomic: t1 interrupts UNBROKEN t2 mid-unit,
		// so the recorded order violates — but coherence only forces
		// t2.2 -> t1.2, and the order t1.1 t2.1 t2.2 t1.2 satisfies every
		// constraint, so reordering can fix it (Theorem 2's <=e case).
		{"level2-correctable-not-atomic", mk(true, 2, 0, []string{"t2", "t1", "t1", "t2"}), true, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep, err := Check(tc.h)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Correctable != tc.correct {
				t.Errorf("correctable = %v, want %v", rep.Correctable, tc.correct)
			}
			if rep.Atomic != tc.atomic {
				t.Errorf("atomic = %v, want %v", rep.Atomic, tc.atomic)
			}
			if !tc.correct && rep.Witness == nil {
				t.Error("violation reported without a witness cycle")
			}
			if tc.correct && rep.Witness != nil {
				t.Error("correctable history carries a witness cycle")
			}
			// Cross-examine against the Theorem 2 machinery, through a
			// FromExecution round trip of what the history replays to.
			exec, n, spec, err := tc.h.Execution()
			if err != nil {
				t.Fatal(err)
			}
			h2, err := FromExecution(exec, n, spec)
			if err != nil {
				t.Fatal(err)
			}
			exec, n, spec, err = h2.Execution()
			if err != nil {
				t.Fatal(err)
			}
			res, err := coherent.CheckExecution(exec, n, spec)
			if err != nil {
				t.Fatal(err)
			}
			if res.Correctable != rep.Correctable || res.Atomic != rep.Atomic {
				t.Errorf("checker disagrees with coherent: (%v,%v) vs (%v,%v)",
					rep.Atomic, rep.Correctable, res.Atomic, res.Correctable)
			}
		})
	}
}

func TestWitnessIsClosedCycle(t *testing.T) {
	rep, err := Check(mk(true, 0, 0, cross))
	if err != nil {
		t.Fatal(err)
	}
	w := rep.Witness
	checkClosedCycle(t, w)
	if s := w.String(); !strings.Contains(s, "witness cycle") {
		t.Errorf("witness rendering: %q", s)
	}
}

// TestReplaySemantics: aborted attempts vanish, partial rollbacks keep the
// prefix, torn-commit redo demotes and recommits, implicit restarts reset.
func TestReplaySemantics(t *testing.T) {
	lv := map[model.TxnID][]string{"t1": nil, "t2": nil}
	step := func(tx string, seq int, x string) Event {
		return Event{Kind: KindStep, Txn: model.TxnID(tx), Seq: seq, Entity: model.EntityID(x)}
	}
	commit := func(txs ...string) Event {
		ids := make([]model.TxnID, len(txs))
		for i, s := range txs {
			ids[i] = model.TxnID(s)
		}
		return Event{Kind: KindCommit, Txns: ids}
	}

	t.Run("aborted attempt dropped", func(t *testing.T) {
		h := &History{Format: Format, K: 2, Levels: lv, Events: []Event{
			step("t1", 1, "x"), step("t1", 2, "y"),
			{Kind: KindAbort, Txn: "t1"},
			step("t1", 1, "x"), step("t1", 2, "y"),
			commit("t1"),
		}}
		exec, _, err := h.Committed()
		if err != nil {
			t.Fatal(err)
		}
		if len(exec) != 2 || exec[0].Seq != 1 || exec[1].Seq != 2 {
			t.Fatalf("committed = %v", exec)
		}
	})

	t.Run("partial rollback keeps prefix", func(t *testing.T) {
		h := &History{Format: Format, K: 2, Levels: lv, Events: []Event{
			step("t1", 1, "x"), step("t1", 2, "y"), step("t1", 3, "z"),
			{Kind: KindAbort, Txn: "t1", Kept: 1},
			step("t1", 2, "y"), step("t1", 3, "z"),
			commit("t1"),
		}}
		exec, _, err := h.Committed()
		if err != nil {
			t.Fatal(err)
		}
		if len(exec) != 3 {
			t.Fatalf("committed %d steps, want 3", len(exec))
		}
		if exec[0].Seq != 1 || exec[1].Seq != 2 || exec[2].Seq != 3 {
			t.Fatalf("seqs = %v", exec)
		}
	})

	t.Run("torn commit redo", func(t *testing.T) {
		h := &History{Format: Format, K: 2, Levels: lv, Events: []Event{
			step("t1", 1, "x"), commit("t1"),
			// Crash tore the commit record; recovery re-runs t1.
			step("t1", 1, "x"), commit("t1"),
		}}
		exec, _, err := h.Committed()
		if err != nil {
			t.Fatal(err)
		}
		if len(exec) != 1 {
			t.Fatalf("committed %d steps, want 1 (last commit wins)", len(exec))
		}
	})

	t.Run("implicit restart", func(t *testing.T) {
		h := &History{Format: Format, K: 2, Levels: lv, Events: []Event{
			step("t1", 1, "x"), step("t1", 2, "y"),
			step("t1", 1, "x"), step("t1", 2, "y"), // seq 1 again: restart
			commit("t1"),
		}}
		exec, _, err := h.Committed()
		if err != nil {
			t.Fatal(err)
		}
		if len(exec) != 2 {
			t.Fatalf("committed %d steps, want 2", len(exec))
		}
	})

	t.Run("seq gap rejected", func(t *testing.T) {
		h := &History{Format: Format, K: 2, Levels: lv, Events: []Event{
			step("t1", 1, "x"), step("t1", 3, "y"),
		}}
		if _, _, err := h.Committed(); err == nil {
			t.Fatal("want error for seq gap")
		}
	})

	t.Run("double commit rejected", func(t *testing.T) {
		h := &History{Format: Format, K: 2, Levels: lv, Events: []Event{
			step("t1", 1, "x"), commit("t1"), commit("t1"),
		}}
		if _, _, err := h.Committed(); err == nil {
			t.Fatal("want error for double commit")
		}
	})

	t.Run("abort keeping too much rejected", func(t *testing.T) {
		h := &History{Format: Format, K: 2, Levels: lv, Events: []Event{
			step("t1", 1, "x"), {Kind: KindAbort, Txn: "t1", Kept: 5},
		}}
		if _, _, err := h.Committed(); err == nil {
			t.Fatal("want error for over-keeping abort")
		}
	})
}

func TestValidateErrors(t *testing.T) {
	base := func() *History {
		return &History{Format: Format, K: 3,
			Levels: map[model.TxnID][]string{"t1": {"A"}},
			Events: []Event{{Kind: KindStep, Txn: "t1", Seq: 1, Entity: "x"}},
		}
	}
	cases := []struct {
		name string
		mut  func(*History)
	}{
		{"bad format", func(h *History) { h.Format = "bogus" }},
		{"bad k", func(h *History) { h.K = 1 }},
		{"wrong label count", func(h *History) { h.Levels["t1"] = []string{"A", "B"} }},
		{"unknown kind", func(h *History) { h.Events[0].Kind = "mystery" }},
		{"cut out of range", func(h *History) { h.Events[0].Cut = 7 }},
		{"unknown txn", func(h *History) { h.Events[0].Txn = "ghost" }},
		{"zero seq", func(h *History) { h.Events[0].Seq = 0 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := base()
			tc.mut(h)
			if err := h.Validate(); err == nil {
				t.Fatal("want validation error")
			}
		})
	}
	if err := base().Validate(); err != nil {
		t.Fatalf("baseline history invalid: %v", err)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	h := mk(true, 2, 2, cross)
	var buf bytes.Buffer
	if err := h.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.K != h.K || len(got.Events) != len(h.Events) || len(got.Levels) != len(h.Levels) {
		t.Fatalf("round trip mangled the history: %+v", got)
	}
	if _, err := Decode(strings.NewReader("{not json")); err == nil {
		t.Fatal("want error for malformed JSON")
	}
}

// TestFromExecutionMatchesCoherent: across many random interleavings of a
// real banking workload, the black-box verdict must agree with the
// Theorem 2 machinery fed the same execution directly.
func TestFromExecutionMatchesCoherent(t *testing.T) {
	p := bank.DefaultParams()
	p.Families = 2
	p.AccountsPerFamily = 3
	p.Transfers = 5
	p.BankAudits = 1
	p.CreditorAudits = 1
	wl := bank.Generate(p)
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		vals := make(map[model.EntityID]model.Value, len(wl.Init))
		for k, v := range wl.Init {
			vals[k] = v
		}
		exec, err := model.RandomInterleave(wl.Programs, vals, rng)
		if err != nil {
			t.Fatal(err)
		}
		n := wl.Nest.Restrict(exec.Txns())
		h, err := FromExecution(exec, n, wl.Spec)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Check(h)
		if err != nil {
			t.Fatal(err)
		}
		res, err := coherent.CheckExecution(exec, n, wl.Spec)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Atomic != res.Atomic || rep.Correctable != res.Correctable {
			t.Errorf("seed %d: history says (%v,%v), coherent says (%v,%v)",
				seed, rep.Atomic, rep.Correctable, res.Atomic, res.Correctable)
		}
		if !rep.Correctable && rep.Witness == nil {
			t.Errorf("seed %d: violation without witness", seed)
		}

		// The file is the whole execution: encoded, decoded and rebuilt, it
		// gives back the steps, every pair's level, and — through the
		// recorded descriptions — the white-box verdict.
		var buf bytes.Buffer
		if err := h.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := Decode(&buf)
		if err != nil {
			t.Fatal(err)
		}
		exec2, n2, spec2, err := back.Execution()
		if err != nil {
			t.Fatal(err)
		}
		if len(exec2) != len(exec) {
			t.Fatalf("seed %d: %d steps rebuilt from %d", seed, len(exec2), len(exec))
		}
		for i, s := range exec {
			if g := exec2[i]; g.Txn != s.Txn || g.Seq != s.Seq || g.Entity != s.Entity || g.Label != s.Label {
				t.Fatalf("seed %d: step %d rebuilt as %v, recorded %v", seed, i, g, s)
			}
		}
		for _, a := range exec.Txns() {
			for _, b := range exec.Txns() {
				if n2.Level(a, b) != n.Level(a, b) {
					t.Fatalf("seed %d: level(%s,%s) = %d rebuilt, %d recorded", seed, a, b, n2.Level(a, b), n.Level(a, b))
				}
			}
		}
		res2, err := coherent.CheckExecution(exec2, n2, spec2)
		if err != nil {
			t.Fatal(err)
		}
		if res2.Atomic != res.Atomic || res2.Correctable != res.Correctable {
			t.Errorf("seed %d: rebuilt execution judged (%v,%v), original (%v,%v)",
				seed, res2.Atomic, res2.Correctable, res.Atomic, res.Correctable)
		}
	}
}

// TestFromExecutionErrors: a specification that disagrees with the nest on
// k, and a step of a transaction the nest does not hold, are both refused.
func TestFromExecutionErrors(t *testing.T) {
	n := nest.New(3)
	n.Add("t1", "A")
	e := model.Execution{{Txn: "t1", Seq: 1, Entity: "x"}}
	if _, err := FromExecution(e, n, breakpoint.Uniform{Levels: 2, C: 2}); err == nil {
		t.Error("k mismatch accepted")
	}
	ghost := append(e, model.Step{Txn: "ghost", Seq: 1, Entity: "x"})
	if _, err := FromExecution(ghost, n, breakpoint.Uniform{Levels: 3, C: 3}); err == nil {
		t.Error("ghost transaction accepted")
	}
}

// TestTestdataViolations: every hand-crafted violating history under
// testdata must decode and be rejected with a witness; the accepting one
// must pass.
func TestTestdataViolations(t *testing.T) {
	bad, err := filepath.Glob("testdata/violation_*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) < 3 {
		t.Fatalf("want >= 3 violating testdata histories, found %d", len(bad))
	}
	for _, path := range bad {
		t.Run(filepath.Base(path), func(t *testing.T) {
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			h, err := Decode(f)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := Check(h)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Correctable {
				t.Fatal("violating history accepted")
			}
			if rep.Witness == nil || len(rep.Witness.Edges) == 0 {
				t.Fatal("no witness cycle emitted")
			}
		})
	}
	f, err := os.Open("testdata/accept_mixed.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	h, err := Decode(f)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Check(h)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correctable {
		t.Fatalf("accepting history rejected: %v", rep.Witness)
	}
}

// TestRecorderDeclaresAbortedBeforeFirstStep: a transaction aborted while
// still waiting for its first grant (deadline, disconnect, a wounded lock
// holder) has an abort as its only event; the recorder must still give it a
// level row, or its own output fails Validate.
func TestRecorderDeclaresAbortedBeforeFirstStep(t *testing.T) {
	n := nest.New(3)
	n.Add("t1", "A")
	n.Add("t2", "A")
	r := NewRecorder(n)
	r.StepPerformed("t2", 1, "x", 0, 0)
	r.TxnAborted("t1", false)
	r.CommitGroup([]model.TxnID{"t2"})
	h := r.History()
	if err := h.Validate(); err != nil {
		t.Fatalf("recorder emitted an invalid history: %v", err)
	}
	rep, err := Check(h)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correctable || rep.Txns != 1 {
		t.Errorf("want one committed transaction, correctable; got %s", rep.Summary())
	}
}

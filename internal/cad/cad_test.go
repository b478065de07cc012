package cad

import (
	"testing"

	"mla/internal/coherent"
	"mla/internal/model"
)

func TestModificationUnitStructure(t *testing.T) {
	m := &Modification{Txn: "m", Specialty: 0, Team: 0, Units: []Unit{
		{Scratch: "s", Object: "o1", Total: "tot", Delta: 3},
		{Scratch: "s", Object: "o2", Total: "tot", Delta: 2},
	}}
	vals := map[model.EntityID]model.Value{}
	e, err := model.RunSerial([]model.Program{m}, vals)
	if err != nil {
		t.Fatal(err)
	}
	if len(e) != 6 {
		t.Fatalf("steps = %d, want 6", len(e))
	}
	wantLabels := []string{"scratch", "object", "total", "scratch", "object", "total"}
	for i, s := range e {
		if s.Label != wantLabels[i] {
			t.Errorf("step %d label %q, want %q", i, s.Label, wantLabels[i])
		}
	}
	if vals["o1"] != 3 || vals["o2"] != 2 || vals["tot"] != 5 || vals["s"] != 2 {
		t.Errorf("vals = %v", vals)
	}
}

func TestSnapshotDetectsInconsistency(t *testing.T) {
	s := &Snapshot{Txn: "snap", Specs: 2, Objects: 2, Result: "res"}
	vals := map[model.EntityID]model.Value{
		object(0, 0): 3, object(0, 1): 4, totalEntity(0): 7, // consistent
		object(1, 0): 5, object(1, 1): 0, totalEntity(1): 9, // off by 4
		"res": -1,
	}
	if _, err := model.RunSerial([]model.Program{s}, vals); err != nil {
		t.Fatal(err)
	}
	if vals["res"] != 4 {
		t.Errorf("res = %d, want 4", vals["res"])
	}
}

func TestSnapshotCleanOnConsistentState(t *testing.T) {
	s := &Snapshot{Txn: "snap", Specs: 1, Objects: 2, Result: "res"}
	vals := map[model.EntityID]model.Value{
		object(0, 0): 3, object(0, 1): 4, totalEntity(0): 7, "res": -1,
	}
	model.RunSerial([]model.Program{s}, vals)
	if vals["res"] != 0 {
		t.Errorf("res = %d, want 0", vals["res"])
	}
}

func TestGenerateShapeAndDeterminism(t *testing.T) {
	p := DefaultParams()
	wl := Generate(p)
	if len(wl.Programs) != p.Mods+p.Snapshots {
		t.Fatalf("programs = %d", len(wl.Programs))
	}
	if wl.Nest.K() != 5 || wl.Spec.K() != 5 {
		t.Fatal("CAD uses a 5-nest")
	}
	if err := wl.Nest.Validate(); err != nil {
		t.Fatal(err)
	}
	wl2 := Generate(p)
	for i := range wl.Programs {
		if wl.Programs[i].ID() != wl2.Programs[i].ID() {
			t.Fatal("generation not deterministic")
		}
	}
	// Nest levels: mods vs snapshots share only level 1.
	var mod, snap model.TxnID
	for _, pr := range wl.Programs {
		if _, ok := wl.mods[pr.ID()]; ok && mod == "" {
			mod = pr.ID()
		}
		if _, ok := wl.snaps[pr.ID()]; ok && snap == "" {
			snap = pr.ID()
		}
	}
	if wl.Nest.Level(mod, snap) != 1 {
		t.Errorf("mod vs snapshot level = %d, want 1", wl.Nest.Level(mod, snap))
	}
}

func TestSerialRunInvariants(t *testing.T) {
	p := DefaultParams()
	p.Mods = 8
	p.Snapshots = 2
	wl := Generate(p)
	vals := map[model.EntityID]model.Value{}
	for k, v := range wl.Init {
		vals[k] = v
	}
	e, err := model.RunSerial(wl.Programs, vals)
	if err != nil {
		t.Fatal(err)
	}
	inv := wl.Check(e, vals)
	if !inv.TotalsConsistent {
		t.Error("serial run must leave totals consistent")
	}
	if inv.SnapshotsDirty != 0 {
		t.Errorf("%d dirty snapshots in a serial run", inv.SnapshotsDirty)
	}
	if inv.TraceValid != nil {
		t.Errorf("trace: %v", inv.TraceValid)
	}
	ok, err := coherent.MultilevelAtomic(e, wl.Nest, wl.Spec)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("serial run must be multilevel atomic")
	}
}

func TestCutCoarseness(t *testing.T) {
	wl := Generate(DefaultParams())
	var mod *Modification
	for _, m := range wl.mods {
		mod = m
		break
	}
	mk := func(label string) []model.Step {
		return []model.Step{{Txn: mod.Txn, Seq: 1, Label: label}}
	}
	if got := wl.Spec.CutAfter(mod.Txn, mk("scratch")); got != 3 {
		t.Errorf("after scratch = %d, want 3", got)
	}
	if got := wl.Spec.CutAfter(mod.Txn, mk("object")); got != 4 {
		t.Errorf("after object = %d, want 4", got)
	}
	if got := wl.Spec.CutAfter(mod.Txn, mk("total")); got != 2 {
		t.Errorf("after total = %d, want 2", got)
	}
	var snap *Snapshot
	for _, s := range wl.snaps {
		snap = s
		break
	}
	if got := wl.Spec.CutAfter(snap.Txn, mk("read")); got != 2 {
		t.Errorf("snapshot cut = %d, want 2", got)
	}
}

func TestWithDepthFlattening(t *testing.T) {
	wl := Generate(DefaultParams())
	var m1, m2same, m2diff model.TxnID
	// Find two mods of the same specialty and one of a different one.
	for id1, a := range wl.mods {
		for id2, b := range wl.mods {
			if id1 == id2 {
				continue
			}
			if a.Specialty == b.Specialty && m2same == "" {
				m1, m2same = id1, id2
			}
			if a.Specialty != b.Specialty && m2diff == "" {
				if m1 == "" {
					m1 = id1
				}
				if id1 == m1 {
					m2diff = id2
				}
			}
		}
	}
	if m1 == "" || m2same == "" {
		t.Skip("workload too small to find same-specialty mods")
	}
	for k := 2; k <= 5; k++ {
		n, spec := wl.WithDepth(k)
		if n.K() != k || spec.K() != k {
			t.Fatalf("depth %d: K mismatch", k)
		}
		if err := n.Validate(); err != nil {
			t.Fatalf("depth %d: %v", k, err)
		}
		// All mods relate at level ≥ 2 when k ≥ 3; at k=2 everything is 1.
		lv := n.Level(m1, m2same)
		switch {
		case k == 2 && lv != 1:
			t.Errorf("k=2: level = %d, want 1", lv)
		case k >= 3 && lv < 2:
			t.Errorf("k=%d: same-specialty mods level = %d, want >= 2", k, lv)
		}
		// Coarseness must be clamped to k.
		c := spec.CutAfter(m1, []model.Step{{Txn: m1, Seq: 1, Label: "object"}})
		if c > k {
			t.Errorf("k=%d: coarseness %d exceeds k", k, c)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("WithDepth(1) must panic")
		}
	}()
	wl.WithDepth(1)
}

func TestSnapshotsAccessor(t *testing.T) {
	wl := Generate(DefaultParams())
	if len(wl.snaps) != wl.Params.Snapshots {
		t.Errorf("snapshots = %d", len(wl.snaps))
	}
}

// Package cad implements the paper's second example (Section 2): Utopian
// Planning, Inc., whose city plans are concurrently modified by experts
// organized into specialties and teams, while the public relations
// department takes consistent snapshots.
//
// The 5-nest follows Section 4.2's computer-aided design example: π(2)
// groups all modification transactions together and all snapshot
// transactions together; π(3) refines modifications by specialty; π(4) by
// team; π(5) is singletons. Snapshots therefore relate to modifications
// only at level 1 and are atomic with respect to them.
//
// A modification is a sequence of work units. Each unit touches the team's
// scratch pad, increments one plan object, and then increments the owning
// specialty's total by the same amount — so the invariant
//
//	sum(objects of specialty) == specialty total
//
// holds at every unit boundary but is broken mid-unit. Boundaries encode
// the trust hierarchy: after the scratch step anyone in the same specialty
// may interleave (coarseness 3), after the object step only teammates
// (coarseness 4), and after the total step — a completed unit — any other
// modification may (coarseness 2). A snapshot reads every object and total
// and records the accumulated inconsistency; because snapshots are atomic
// with respect to modifications, a committed snapshot of any correctable
// execution must record exactly 0.
package cad

import (
	"fmt"
	"math/rand"

	"mla/internal/breakpoint"
	"mla/internal/model"
	"mla/internal/nest"
)

// The planning department's fixed shape: Specialties specialties of
// objectsPerSpec plan objects, TeamsPerSpecialty teams in each, and
// modifications of unitsPerMod units.
const (
	Specialties       = 3
	TeamsPerSpecialty = 2
	objectsPerSpec    = 4
	unitsPerMod       = 3
	crossSpecialtyPct = 20 // percentage of units touching another specialty
)

// Params configures a generated CAD workload.
type Params struct {
	Mods      int
	Snapshots int
	Seed      int64
}

// DefaultParams returns a moderately contended configuration.
func DefaultParams() Params {
	return Params{Mods: 18, Snapshots: 2, Seed: 1}
}

// Workload bundles the programs, the 5-level specification, and the initial
// store.
type Workload struct {
	Params   Params
	Programs []model.Program
	Nest     *nest.Nest
	Spec     breakpoint.Spec
	Init     map[model.EntityID]model.Value

	mods  map[model.TxnID]*Modification
	snaps map[model.TxnID]*Snapshot
}

func object(spec, i int) model.EntityID {
	return model.EntityID(fmt.Sprintf("plan/s%02d/o%02d", spec, i))
}

func totalEntity(spec int) model.EntityID {
	return model.EntityID(fmt.Sprintf("plan/s%02d/total", spec))
}

func scratch(spec, team int) model.EntityID {
	return model.EntityID(fmt.Sprintf("scratch/s%02d/t%02d", spec, team))
}

// Unit is one work unit of a modification: touch the scratch pad, add Delta
// to Object, add Delta to the specialty total.
type Unit struct {
	Scratch model.EntityID
	Object  model.EntityID
	Total   model.EntityID
	Delta   model.Value
}

// Modification is an expert's change transaction: a fixed sequence of work
// units (3 steps each).
type Modification struct {
	Txn       model.TxnID
	Specialty int
	Team      int
	Units     []Unit
}

// ID implements model.Program.
func (m *Modification) ID() model.TxnID { return m.Txn }

// Init implements model.Program.
func (m *Modification) Init() model.ProgState { return modState{m: m} }

type modState struct {
	m    *Modification
	unit int
	step int // 0 scratch, 1 object, 2 total
}

func (s modState) Next() (model.EntityID, bool) {
	if s.unit >= len(s.m.Units) {
		return "", false
	}
	u := s.m.Units[s.unit]
	switch s.step {
	case 0:
		return u.Scratch, true
	case 1:
		return u.Object, true
	default:
		return u.Total, true
	}
}

func (s modState) Apply(v model.Value) (model.Value, string, model.ProgState) {
	u := s.m.Units[s.unit]
	ns := s
	var label string
	var w model.Value
	switch s.step {
	case 0:
		label, w = "scratch", v+1
		ns.step = 1
	case 1:
		label, w = "object", v+u.Delta
		ns.step = 2
	default:
		label, w = "total", v+u.Delta
		ns.step = 0
		ns.unit++
	}
	return w, label, ns
}

// Snapshot reads every object and every specialty total and records the
// accumulated absolute inconsistency |sum(objects) − total| in its Result
// entity.
type Snapshot struct {
	Txn     model.TxnID
	Specs   int
	Objects int
	Result  model.EntityID
}

// ID implements model.Program.
func (s *Snapshot) ID() model.TxnID { return s.Txn }

// Init implements model.Program.
func (s *Snapshot) Init() model.ProgState { return snapState{s: s} }

type snapState struct {
	s       *Snapshot
	spec    int
	obj     int // 0..Objects-1 objects, Objects = the total entity
	sum     model.Value
	badness model.Value
}

func (st snapState) Next() (model.EntityID, bool) {
	if st.spec < st.s.Specs {
		if st.obj < st.s.Objects {
			return object(st.spec, st.obj), true
		}
		return totalEntity(st.spec), true
	}
	if st.spec == st.s.Specs {
		return st.s.Result, true
	}
	return "", false
}

func (st snapState) Apply(v model.Value) (model.Value, string, model.ProgState) {
	ns := st
	if st.spec < st.s.Specs {
		if st.obj < st.s.Objects {
			ns.sum += v
			ns.obj++
			return v, "read", ns
		}
		diff := ns.sum - v
		if diff < 0 {
			diff = -diff
		}
		ns.badness += diff
		ns.sum = 0
		ns.obj = 0
		ns.spec++
		return v, "read", ns
	}
	ns.spec++
	return ns.badness, "record", ns
}

// Generate builds a deterministic CAD workload.
func Generate(p Params) *Workload {
	rng := rand.New(rand.NewSource(p.Seed))
	wl := &Workload{
		Params: p,
		Init:   make(map[model.EntityID]model.Value),
		mods:   make(map[model.TxnID]*Modification),
		snaps:  make(map[model.TxnID]*Snapshot),
	}
	for s := 0; s < Specialties; s++ {
		for o := 0; o < objectsPerSpec; o++ {
			wl.Init[object(s, o)] = 0
		}
		wl.Init[totalEntity(s)] = 0
		for t := 0; t < TeamsPerSpecialty; t++ {
			wl.Init[scratch(s, t)] = 0
		}
	}

	n := nest.New(5)
	var programs []model.Program
	for i := 0; i < p.Mods; i++ {
		spec := rng.Intn(Specialties)
		team := rng.Intn(TeamsPerSpecialty)
		id := model.TxnID(fmt.Sprintf("mod-%03d", i))
		m := &Modification{Txn: id, Specialty: spec, Team: team}
		for u := 0; u < unitsPerMod; u++ {
			target := spec
			if rng.Intn(100) < crossSpecialtyPct {
				for target == spec {
					target = rng.Intn(Specialties)
				}
			}
			m.Units = append(m.Units, Unit{
				Scratch: scratch(spec, team),
				Object:  object(target, rng.Intn(objectsPerSpec)),
				Total:   totalEntity(target),
				Delta:   model.Value(1 + rng.Intn(5)),
			})
		}
		wl.mods[id] = m
		programs = append(programs, m)
		n.Add(id, "mods", fmt.Sprintf("spec-%02d", spec), fmt.Sprintf("team-%02d", team))
	}
	for i := 0; i < p.Snapshots; i++ {
		id := model.TxnID(fmt.Sprintf("snap-%03d", i))
		s := &Snapshot{Txn: id, Specs: Specialties, Objects: objectsPerSpec, Result: model.EntityID("snapres/" + string(id))}
		wl.snaps[id] = s
		wl.Init[s.Result] = -1 // sentinel: distinguishes "never ran" from 0
		programs = append(programs, s)
		n.Add(id, "snaps", "snap/"+string(id), "snap/"+string(id))
	}
	rng.Shuffle(len(programs), func(i, j int) { programs[i], programs[j] = programs[j], programs[i] })
	wl.Programs = programs
	wl.Nest = n
	wl.Spec = breakpoint.Func{Levels: 5, Fn: wl.cutAfter}
	return wl
}

// cutAfter places the CAD breakpoints: for modifications, coarseness 3
// after a scratch step (specialty), 4 after an object step (team), 2 after
// a total step (completed unit — any modification); snapshots use
// coarseness 2 throughout (other snapshots may interleave; modifications
// relate to snapshots only at level 1 and so never can).
func (wl *Workload) cutAfter(t model.TxnID, prefix []model.Step) int {
	if _, ok := wl.mods[t]; ok {
		switch prefix[len(prefix)-1].Label {
		case "scratch":
			return 3
		case "object":
			return 4
		default:
			return 2
		}
	}
	return 2
}

// Check evaluates the CAD invariants against a run.
type Invariants struct {
	TotalsConsistent bool // final object sums match specialty totals
	SnapshotsClean   int  // committed snapshots recording 0 inconsistency
	SnapshotsDirty   int
	TraceValid       error
}

// Check verifies that (a) at quiescence every specialty's object sum equals
// its total, (b) every committed snapshot recorded zero inconsistency
// (guaranteed for correctable executions), and (c) the surviving trace's
// values chain.
func (wl *Workload) Check(exec model.Execution, final map[model.EntityID]model.Value) Invariants {
	inv := Invariants{TotalsConsistent: true}
	for s := 0; s < Specialties; s++ {
		var sum model.Value
		for o := 0; o < objectsPerSpec; o++ {
			sum += final[object(s, o)]
		}
		if sum != final[totalEntity(s)] {
			inv.TotalsConsistent = false
		}
	}
	for _, s := range wl.snaps {
		if final[s.Result] == 0 {
			inv.SnapshotsClean++
		} else {
			inv.SnapshotsDirty++
		}
	}
	inv.TraceValid = exec.Validate(wl.Init)
	return inv
}

// WithDepth returns the workload's specification flattened to k levels
// (2 ≤ k ≤ 5) for the nest-depth experiment (E7): intermediate nest labels
// beyond level k−2 are dropped and breakpoint coarseness is clamped to k —
// a boundary whose original coarseness exceeds k admits nobody under the
// flattened nest, exactly as if it were absent. k=2 is serializability;
// k=5 is the full hierarchy.
func (wl *Workload) WithDepth(k int) (*nest.Nest, breakpoint.Spec) {
	if k < 2 || k > 5 {
		panic(fmt.Sprintf("cad: depth %d out of range [2,5]", k))
	}
	n := nest.New(k)
	for id, m := range wl.mods {
		full := []string{"mods", fmt.Sprintf("spec-%02d", m.Specialty), fmt.Sprintf("team-%02d", m.Team)}
		n.Add(id, full[:k-2]...)
	}
	for id := range wl.snaps {
		full := []string{"snaps", "snap/" + string(id), "snap/" + string(id)}
		n.Add(id, full[:k-2]...)
	}
	return n, breakpoint.Clamp(breakpoint.Func{Levels: 5, Fn: wl.cutAfter}, k)
}

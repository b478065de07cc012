package bank

import (
	"math/rand"
	"reflect"
	"testing"

	"mla/internal/model"
)

// stateCases are one program of each kind the slab states back. Values
// drawn in [0, 150) make a transfer's withdrawal phase end early or run
// through every source, and its second deposit happen or not.
func stateCases() map[string]model.Program {
	xfer := func(id model.TxnID, src ...model.EntityID) Transfer {
		return Transfer{Txn: id, Sources: src, Targets: [2]model.EntityID{"T0", "T1"}, Amount: 100, Reserve: 125}
	}
	t := xfer("t", "A", "B", "C")
	return map[string]model.Program{
		"transfer": &t,
		"audit":    &Audit{Txn: "a", Accounts: []model.EntityID{"A", "B", "C", "D"}, Result: "R"},
		"session": &Session{Txn: "s", Transfers: []Transfer{
			xfer("s", "A", "B", "C"), xfer("s", "D"), xfer("s", "B", "A"), xfer("s", "C", "D", "A"),
		}},
	}
}

// stateStep is what a program state decides when stepped: the entity it
// accesses, then the label and the written value for the observed value.
type stateStep struct {
	x     model.EntityID
	label string
	w     model.Value
}

// runFrom steps st to its final state, feeding the i-th step vals[i]. It
// returns the steps and every state it passed through, st first, each with
// the entity its Next reported when it was returned.
func runFrom(t *testing.T, st model.ProgState, vals []model.Value) ([]stateStep, []model.ProgState, []model.EntityID) {
	t.Helper()
	var steps []stateStep
	states := []model.ProgState{st}
	var next []model.EntityID
	for i := 0; ; i++ {
		x, ok := st.Next()
		next = append(next, x)
		if !ok {
			return steps, states, next
		}
		if i == len(vals) {
			t.Fatalf("state took more than %d steps", len(vals))
		}
		w, label, ns := st.Apply(vals[i])
		steps = append(steps, stateStep{x, label, w})
		st = ns
		states = append(states, st)
	}
}

func drawValues(rng *rand.Rand) []model.Value {
	vals := make([]model.Value, 32)
	for i := range vals {
		vals[i] = model.Value(rng.Intn(150))
	}
	return vals
}

// TestStatesStayPut: a state a program returned reports the same Next()
// after the run has moved on and finished — the slab a run steps in only
// ever writes past the state being stepped.
func TestStatesStayPut(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for name, p := range stateCases() {
		for trial := 0; trial < 50; trial++ {
			_, states, next := runFrom(t, p.Init(), drawValues(rng))
			for i, st := range states {
				if x, ok := st.Next(); x != next[i] || ok != (i < len(states)-1) {
					t.Fatalf("%s trial %d: state %d now reports Next() = %q, %v; it reported %q when returned",
						name, trial, i, x, ok, next[i])
				}
			}
			final := states[len(states)-1]
			if w, label, ns := final.Apply(7); w != 7 || label != "" || ns != final {
				t.Fatalf("%s: Apply on the final state = %d, %q, %v; want the value back and the state itself", name, w, label, ns)
			}
		}
	}
}

// TestResumeFromEarlierState is the simulator's partial rollback: it keeps
// the states before each step and, after a rollback, resumes from state k,
// which now observes different values. The resumed run must take exactly
// the steps a fresh run fed the same values takes, and the kept states must
// not change under it — though the resumed run reuses the slab slots of the
// abandoned one.
func TestResumeFromEarlierState(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for name, p := range stateCases() {
		for trial := 0; trial < 50; trial++ {
			first := drawValues(rng)
			steps, states, next := runFrom(t, p.Init(), first)
			// Descending: resuming from state k rewrites the slots after
			// it, so the states the next, earlier resume starts from and
			// checks are still the first run's.
			for k := len(steps) - 1; k >= 0; k-- {
				again := append(append([]model.Value(nil), first[:k]...), drawValues(rng)...)
				want, _, _ := runFrom(t, p.Init(), again)
				resumed, _, _ := runFrom(t, states[k], again[k:])
				if got := append(steps[:k:k], resumed...); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s trial %d: resumed from state %d: %v, a fresh run takes %v", name, trial, k, got, want)
				}
				for i := 0; i <= k; i++ {
					if x, _ := states[i].Next(); x != next[i] {
						t.Fatalf("%s trial %d: resuming from state %d moved kept state %d to %q, was %q", name, trial, k, i, x, next[i])
					}
				}
			}
		}
	}
}

// TestStepAllocations pins the slab: running a transfer or an audit from
// Init to its final state allocates once, and a session of four transfers
// once for itself and once per transfer.
func TestStepAllocations(t *testing.T) {
	for name, want := range map[string]float64{"transfer": 1, "audit": 1, "session": 5} {
		p := stateCases()[name]
		got := testing.AllocsPerRun(100, func() {
			st := p.Init()
			for v := model.Value(40); ; v += 30 {
				if _, ok := st.Next(); !ok {
					return
				}
				_, _, st = st.Apply(v % 150)
			}
		})
		if got != want {
			t.Errorf("%s: %.2f allocations per run, want %.0f", name, got, want)
		}
	}
}

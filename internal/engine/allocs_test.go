package engine

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"mla/internal/bank"
	"mla/internal/history"
	"mla/internal/model"
	"mla/internal/nest"
	"mla/internal/sched"
	"mla/internal/wal"
)

// pooledInc is a tuned client program: one per submitting goroutine, reused
// for every transaction, with a pointer state mutated in place so stepping
// re-boxes nothing. Retirement of a transaction finishes before its Submit
// returns, so the ID buffer is free to reuse; the string conversion copies.
type pooledInc struct {
	id   model.TxnID
	buf  []byte
	ents []model.EntityID
	idx  int
}

func (p *pooledInc) ID() model.TxnID { return p.id }
func (p *pooledInc) Init() model.ProgState {
	p.idx = 0
	return p
}

func (p *pooledInc) Next() (model.EntityID, bool) {
	if p.idx < len(p.ents) {
		return p.ents[p.idx], true
	}
	return "", false
}

func (p *pooledInc) Apply(v model.Value) (model.Value, string, model.ProgState) {
	p.idx++
	return v + 1, "inc", p
}

// TestSessionAllocBudget is the hot-path allocation pin DESIGN.md's
// allocation-budget section points at: a resident Session under sharded 2PL
// over a volatile store, fed pooled 2-step increment programs from several
// goroutines, must commit every transaction, land exactly on the acked
// increment counts, and spend at most 5 heap allocations per committed
// transaction. The measured steady state is 1.0, under -race too: the
// program's id string, since the engine itself allocates nothing (see
// TestSessionSubmitAllocatesNothing). A trip here means record recycling,
// interning or the store's index recycling regressed, not noise.
func TestSessionAllocBudget(t *testing.T) {
	const (
		workers      = 4
		warmup       = 250 // per worker, before the MemStats baseline
		measured     = 750 // per worker: 3,000 measured transactions
		entities     = 2048
		allocCeiling = 5
	)
	ents := make([]model.EntityID, entities)
	init := make(map[model.EntityID]model.Value, entities)
	for e := range ents {
		ents[e] = model.EntityID(fmt.Sprintf("x%04d", e))
		init[ents[e]] = 0
	}
	store := NewVolatileStore(init)
	s := NewSession(Config{Seed: 3}, sched.NewShardedTwoPhase(16), nil, store)
	defer s.Close()

	// Each worker counts its own acked increments per entity; increments
	// commute, so the merged counts are the schedule-independent final state.
	acked := make([][]int, workers)
	for w := range acked {
		acked[w] = make([]int, entities)
	}
	run := func(w, from, to int) error {
		p := &pooledInc{}
		for i := from; i < to; i++ {
			n := i*workers + w
			p.buf = strconv.AppendInt(append(p.buf[:0], 'a'), int64(n), 36)
			p.id = model.TxnID(p.buf)
			// Neighbouring transactions share an entity: incidental
			// contention, as in the benchmark's uniform workload.
			lo := n % (entities - 1)
			p.ents = ents[lo : lo+2]
			out, err := s.Submit(context.Background(), p, SubmitOpts{})
			if err != nil {
				return err
			}
			if !out.Committed {
				return fmt.Errorf("%s resolved without committing: %+v", p.id, out)
			}
			acked[w][lo]++
			acked[w][lo+1]++
		}
		return nil
	}
	phase := func(from, to int) {
		t.Helper()
		var wg sync.WaitGroup
		errs := make([]error, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				errs[w] = run(w, from, to)
			}(w)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	phase(0, warmup)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	phase(warmup, warmup+measured)
	runtime.ReadMemStats(&after)

	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	const total = workers * (warmup + measured)
	if st := s.Stats(); st.Committed != total {
		t.Errorf("session committed %d/%d", st.Committed, total)
	}
	final := store.Values()
	for e, x := range ents {
		want := 0
		for w := range acked {
			want += acked[w][e]
		}
		if final[x] != model.Value(want) {
			t.Errorf("final[%s] = %d, want %d acked increments", x, final[x], want)
		}
	}
	perTxn := float64(after.Mallocs-before.Mallocs) / float64(workers*measured)
	if perTxn <= 0 || perTxn > allocCeiling {
		t.Errorf("allocs/txn %.1f outside (0, %d] — hot-path allocation budget regressed", perTxn, allocCeiling)
	}
	t.Logf("%d measured txns from %d goroutines: %.1f allocs/txn", workers*measured, workers, perTxn)
}

// TestSessionSubmitAllocatesNothing pins the engine's steady state at zero
// heap allocations per transaction: a resident Session under sharded 2PL
// over a volatile store, fed one caller-owned program whose ids are built
// before measuring, allocates nothing in Submit — no record, stepper or
// commit group — including under -race. Over the group-commit pipeline on an
// in-memory medium the one allocation left is the flush's ack channel: the
// pending-group queue and its id copies reuse their storage, and the
// submission waits on the ack itself instead of on a generation channel.
func TestSessionSubmitAllocatesNothing(t *testing.T) {
	init := map[model.EntityID]model.Value{"x": 0, "y": 0, "z": 0}
	t.Run("volatile", func(t *testing.T) {
		store := NewVolatileStore(init)
		submitAllocs(t, store, 0)
	})
	t.Run("pipelined", func(t *testing.T) {
		db, err := wal.Open(wal.NewMedium(), init)
		if err != nil {
			t.Fatal(err)
		}
		pipe := wal.NewPipeline(db, 0)
		defer pipe.Close()
		submitAllocs(t, NewPipelinedWALStore(pipe), 1)
	})
}

// submitAllocs submits two-step increments over x, y and z one at a time
// through a resident session over store and fails when the steady state
// allocates more than ceiling objects per Submit.
func submitAllocs(t *testing.T, store Store, ceiling float64) {
	t.Helper()
	const runs = 2000
	ents := []model.EntityID{"x", "y", "z"}
	s := NewSession(Config{Seed: 3}, sched.NewShardedTwoPhase(16), nil, store)
	defer s.Close()

	ids := make([]model.TxnID, 2*runs+2)
	for i := range ids {
		ids[i] = model.TxnID("t" + strconv.Itoa(i))
	}
	p := &pooledInc{}
	n := 0
	submit := func() {
		p.id, p.ents = ids[n], ents[n%2:n%2+2]
		n++
		out, err := s.Submit(context.Background(), p, SubmitOpts{})
		if err != nil || !out.Committed {
			t.Fatalf("%s: %+v, %v", p.id, out, err)
		}
	}
	for n < runs {
		submit() // warm-up: tables, maps and free lists reach their steady size
	}
	if got := testing.AllocsPerRun(runs, submit); got > ceiling {
		t.Fatalf("%.2f allocations per Submit, want at most %.0f", got, ceiling)
	}
	if got := store.Values(); got["x"]+got["y"]+got["z"] != model.Value(2*n) {
		t.Fatalf("final values %v after %d two-step increments", got, n)
	}
}

// TestPreventerSubmitAllocatesOnlyTheProgram pins the closure path's steady
// state: a resident Session under sched.Preventer, with an in-memory
// history.Recorder attached, fed prebuilt Section 4.2 programs (one bank
// audit per 55 submits, transfers otherwise) through bank.Population,
// allocates at most one object per Submit — the program's state slab. The
// nest's row slab, the recorder's id arena and the closure's tables all
// reach a steady size, so none of them allocates per transaction, including
// under -race.
func TestPreventerSubmitAllocatesOnlyTheProgram(t *testing.T) {
	const runs = 1100
	pop := bank.NewPopulation(bank.World{Families: 16, AccountsPerFamily: 4, InitialBalance: 1000}, 100, 125, nest.New(4), true)
	world := pop.World
	p := sched.NewPreventer(pop.Nest, pop.Spec)
	rec := history.NewRecorder(pop.Nest)
	store := NewVolatileStore(world.Init())
	s := NewSession(Config{Seed: 1, Observer: rec}, p, pop.Spec, store)
	defer s.Close()

	progs := make([]model.Program, 2*runs+1)
	paths := make([][]string, len(progs))
	rng := rand.New(rand.NewSource(1))
	var audits []model.EntityID
	for i := range progs {
		if i%55 == 27 {
			a, path := pop.Audit(model.TxnID("a" + strconv.Itoa(i)))
			progs[i], paths[i] = a, path
			audits = append(audits, a.Result)
			continue
		}
		progs[i], paths[i] = pop.DrawTransfer(rng, model.TxnID("x"+strconv.Itoa(i)), i%world.Families, 100)
	}
	n := 0
	opts := SubmitOpts{
		Prepare: func() { pop.Prepare(progs[n], paths[n]) },
		Cleanup: func() { pop.Cleanup(progs[n].ID()) },
	}
	submit := func() {
		out, err := s.Submit(context.Background(), progs[n], opts)
		if err != nil || !out.Committed {
			t.Fatalf("%s: %+v, %v", progs[n].ID(), out, err)
		}
		n++
	}
	for n < runs {
		submit() // warm-up: the closure's tables, the maps and the slabs reach their steady size
	}
	if got := testing.AllocsPerRun(runs, submit); got > 1 {
		t.Fatalf("%.2f allocations per Submit, want at most 1 (the program's state slab)", got)
	}

	if st := p.Stats(); st.Sealed != n {
		t.Errorf("sealed %d of %d committed transactions", st.Sealed, n)
	}
	final := store.Values()
	var total model.Value
	for _, x := range pop.Accounts {
		total += final[x]
	}
	if total != world.Total() {
		t.Errorf("accounts hold %d, the bank started with %d", total, world.Total())
	}
	for _, res := range audits {
		if final[res] != world.Total() {
			t.Errorf("%s recorded %d, the bank holds %d", res, final[res], world.Total())
		}
	}
	committed := 0
	for _, ev := range rec.History().Events {
		committed += len(ev.Txns)
	}
	if committed != n {
		t.Errorf("the history commits %d of %d transactions", committed, n)
	}
}

package wal

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"mla/internal/fault"
	"mla/internal/model"
)

// TestPipelineBatchesCommits submits many commit groups concurrently and
// checks the pipeline's whole contract: every ack fires, every transaction
// is durably committed, and the device saw fewer syncs than groups (the
// amortization that justifies the pipeline's existence). The flusher is
// self-clocked, so batches form only while a sync is in flight: the medium
// is given a sync delay for the groups to pile up behind.
func TestPipelineBatchesCommits(t *testing.T) {
	m := NewMedium()
	m.SyncDelay = 2 * time.Millisecond
	db, err := Open(m, map[model.EntityID]model.Value{"x": 0})
	if err != nil {
		t.Fatal(err)
	}
	p := NewPipeline(db, 0)
	const n = 64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := model.TxnID(fmt.Sprintf("t%d", i))
			if _, err := p.Perform(id, 1, "x", func(v model.Value) (model.Value, string) {
				return v + 1, "add"
			}); err != nil {
				t.Error(err)
				return
			}
			<-p.Submit([]model.TxnID{id})
			if !p.Committed(id) {
				t.Errorf("%s acked but not committed", id)
			}
		}(i)
	}
	wg.Wait()
	p.Close()

	st := p.Snapshot()
	if st.Groups != n || st.Txns != n {
		t.Fatalf("stats %+v, want %d groups and txns", st, n)
	}
	if st.Flushes >= n {
		t.Fatalf("no batching: %d flushes for %d groups", st.Flushes, n)
	}
	if st.MaxBatch < 2 {
		t.Fatalf("MaxBatch = %d, expected a merged flush", st.MaxBatch)
	}
	if got := db.Snapshot().Syncs; got != st.Flushes {
		t.Fatalf("device syncs %d != flushes %d", got, st.Flushes)
	}
	// Crash and recover: all n commits survive.
	rdb, err := Open(db.Crash(), map[model.EntityID]model.Value{"x": 0})
	if err != nil {
		t.Fatal(err)
	}
	if got := rdb.Get("x"); got != n {
		t.Fatalf("recovered x = %d, want %d", got, n)
	}
	for i := 0; i < n; i++ {
		if id := model.TxnID(fmt.Sprintf("t%d", i)); !rdb.Committed(id) {
			t.Fatalf("%s lost across recovery", id)
		}
	}
}

// TestPipelineLoneSubmitPaysOneSync: with nothing to batch against, submit →
// ack costs one device sync — no batching window is waited out, whatever
// interval the constructor is handed.
func TestPipelineLoneSubmitPaysOneSync(t *testing.T) {
	m := NewMedium()
	m.SyncDelay = 10 * time.Millisecond
	db, err := Open(m, map[model.EntityID]model.Value{"x": 0})
	if err != nil {
		t.Fatal(err)
	}
	p := NewPipeline(db, 300*time.Millisecond)
	defer p.Close()
	if _, err := p.Perform("t0", 1, "x", func(v model.Value) (model.Value, string) {
		return v + 1, "add"
	}); err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	<-p.Submit([]model.TxnID{"t0"})
	if d := time.Since(t0); d < m.SyncDelay || d > 15*m.SyncDelay {
		t.Fatalf("lone submit acked after %v, want about one %v sync", d, m.SyncDelay)
	}
	if st := p.Snapshot(); st.Flushes != 1 || m.Syncs() != 1 {
		t.Fatalf("%d flushes, %d syncs for one group", st.Flushes, m.Syncs())
	}
}

// TestPipelineRecoveryEquivalence runs one deterministic history through
// an unbatched DB (one Commit record and sync per group) and through the
// pipeline, crashes both, and demands identical recovered values and
// committed sets — batching may change record layout, never outcomes.
func TestPipelineRecoveryEquivalence(t *testing.T) {
	init := map[model.EntityID]model.Value{"a": 5, "b": -2}
	type op struct {
		id    model.TxnID
		x     model.EntityID
		delta model.Value
	}
	history := []op{
		{"t0", "a", 3}, {"t1", "b", 4}, {"t2", "a", -1},
		{"t3", "b", 7}, {"t4", "a", 2},
	}

	plain, err := Open(NewMedium(), init)
	if err != nil {
		t.Fatal(err)
	}
	piped, err := Open(NewMedium(), init)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPipeline(piped, 0)
	var acks []<-chan struct{}
	for _, o := range history {
		f := func(v model.Value) (model.Value, string) { return v + o.delta, "add" }
		if _, err := plain.Perform(o.id, 1, o.x, f); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Perform(o.id, 1, o.x, f); err != nil {
			t.Fatal(err)
		}
	}
	// t4 stays uncommitted in both: recovery must roll it back identically.
	for _, o := range history[:4] {
		plain.Commit(o.id)
		plain.Sync()
		acks = append(acks, p.Submit([]model.TxnID{o.id}))
	}
	for _, ack := range acks {
		<-ack
	}
	p.Close()

	ra, err := Open(plain.Crash(), init)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Open(piped.Crash(), init)
	if err != nil {
		t.Fatal(err)
	}
	if !sameValues(ra.Values(), rb.Values()) {
		t.Fatalf("recovered values diverge: unbatched %v, pipelined %v", ra.Values(), rb.Values())
	}
	for _, o := range history {
		if ra.Committed(o.id) != rb.Committed(o.id) {
			t.Fatalf("%s: committed %v unbatched vs %v pipelined", o.id, ra.Committed(o.id), rb.Committed(o.id))
		}
	}
	if rb.Committed("t4") {
		t.Fatal("uncommitted t4 survived recovery")
	}
}

// TestPipelineTornTailKeepsGroupsAtomic crashes the pipelined log at every
// prefix and checks that each merged commit record keeps its member groups
// all-or-none: no prefix ever shows a group partially committed.
func TestPipelineTornTailKeepsGroupsAtomic(t *testing.T) {
	init := map[model.EntityID]model.Value{"a": 0}
	db, err := Open(NewMedium(), init)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPipeline(db, 0)
	// Two 2-member groups: merged into one record when both arrive before
	// the flusher runs, two records otherwise — atomic either way.
	for _, id := range []model.TxnID{"g1a", "g1b", "g2a", "g2b"} {
		if _, err := p.Perform(id, 1, "a", func(v model.Value) (model.Value, string) {
			return v + 1, "add"
		}); err != nil {
			t.Fatal(err)
		}
	}
	a1 := p.Submit([]model.TxnID{"g1a", "g1b"})
	a2 := p.Submit([]model.TxnID{"g2a", "g2b"})
	<-a1
	<-a2
	p.Close()

	m := db.Crash()
	recs := m.Records()
	groups := [][]model.TxnID{{"g1a", "g1b"}, {"g2a", "g2b"}}
	for lsn := int64(0); lsn <= int64(len(recs)); lsn++ {
		rdb, err := Open(m.Prefix(lsn), init)
		if err != nil {
			t.Fatalf("prefix %d: %v", lsn, err)
		}
		for _, g := range groups {
			if rdb.Committed(g[0]) != rdb.Committed(g[1]) {
				t.Fatalf("prefix %d: group %v torn: %v vs %v",
					lsn, g, rdb.Committed(g[0]), rdb.Committed(g[1]))
			}
		}
	}
}

// TestPipelineCloseFlushesPending submits without waiting and closes; Close
// must flush the stragglers and fire their acks.
func TestPipelineCloseFlushesPending(t *testing.T) {
	db, err := Open(NewMedium(), map[model.EntityID]model.Value{"x": 0})
	if err != nil {
		t.Fatal(err)
	}
	p := NewPipeline(db, 0)
	if _, err := p.Perform("t0", 1, "x", func(v model.Value) (model.Value, string) {
		return v + 1, "add"
	}); err != nil {
		t.Fatal(err)
	}
	ack := p.Submit([]model.TxnID{"t0"})
	p.Close()
	select {
	case <-ack:
	default:
		t.Fatal("Close returned with an unacked pending commit")
	}
	if !db.Committed("t0") {
		t.Fatal("pending commit lost by Close")
	}
}

// TestSubmitSteadyStateAllocations pins the group-commit fast path: once a
// batch is open, enqueueing another commit group must not allocate — the
// batch slice is recycled across flushes and every group in a batch shares
// one ack channel. The historical regression this guards against allocated
// a per-group ids copy and a per-group ack channel on every Submit, which
// showed up as ~4 extra allocs/txn on the hotspot benchmark.
func TestSubmitSteadyStateAllocations(t *testing.T) {
	m := NewMedium()
	m.SyncDelay = 200 * time.Millisecond // far longer than the measured submits: one open batch
	db, err := Open(m, map[model.EntityID]model.Value{"x": 0})
	if err != nil {
		t.Fatal(err)
	}
	p := NewPipeline(db, 0)
	defer p.Close()
	const runs = 200
	groups := make([][]model.TxnID, 0, runs+2)
	for i := 0; i < runs+2; i++ {
		id := model.TxnID(fmt.Sprintf("t%d", i))
		if _, err := p.Perform(id, 1, "x", func(v model.Value) (model.Value, string) {
			return v + 1, "add"
		}); err != nil {
			t.Fatal(err)
		}
		groups = append(groups, []model.TxnID{id})
	}
	// The first submit sends the flusher into its sync; everything submitted
	// until that returns joins one open batch. AllocsPerRun's warm-up call
	// creates that batch's shared ack channel, so the measured runs see only
	// the steady state.
	p.Submit(groups[0])
	for p.Snapshot().Flushes == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	next := 1
	allocs := testing.AllocsPerRun(runs, func() {
		p.Submit(groups[next])
		next++
	})
	// Amortized slice growth across 200 appends is well under one
	// allocation per call; anything at or above 1 means a per-group
	// allocation crept back into Submit.
	if allocs >= 1 {
		t.Errorf("Submit allocates %.2f objects per group in steady state, want < 1", allocs)
	}
}

// TestPipelineFailedMediumAbortIsNoop: once the medium has failed, Abort
// returns nil and appends nothing — not even for a victim with no steps,
// whose Abort marker would be an append. The engine treats an Abort error as
// a bug, and a wound or deadline rollback can land between the medium
// failing and the session noticing.
func TestPipelineFailedMediumAbortIsNoop(t *testing.T) {
	for _, tc := range []struct {
		name   string
		medium func(t *testing.T) *Medium
	}{
		{"degraded file", func(t *testing.T) *Medium {
			m, err := OpenFile(t.TempDir(), FileOptions{Faults: fault.New(fault.Plan{Seed: 11, DiskFullAfter: 400})})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { m.Close() })
			return m
		}},
		{"crashed memory", func(t *testing.T) *Medium {
			m := NewMedium()
			m.Faults = fault.New(fault.Plan{CrashAppends: []int64{40}})
			return m
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db, err := Open(tc.medium(t), fuzzInit())
			if err != nil {
				t.Fatal(err)
			}
			p := NewPipeline(db, 0)
			defer p.Close()
			if _, err := p.Perform("victim", 1, "a", add(1)); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 100 && p.Err() == nil; i++ {
				id := model.TxnID(fmt.Sprintf("t%d", i))
				if _, err := p.Perform(id, 1, "b", add(1)); err != nil {
					break
				}
				<-p.Submit([]model.TxnID{id})
			}
			if p.Err() == nil {
				t.Fatal("the medium never failed")
			}
			n := db.LogLen()
			if err := p.Abort(map[model.TxnID]bool{"victim": true, "idle": true}); err != nil {
				t.Fatalf("Abort on a failed medium = %v, want nil", err)
			}
			if got := db.LogLen(); got != n {
				t.Fatalf("Abort on a failed medium appended %d records", got-n)
			}
		})
	}
}

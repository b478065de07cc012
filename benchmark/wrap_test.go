package main

import (
	"testing"
	"time"

	"mla/internal/breakpoint"
	"mla/internal/engine"
	"mla/internal/model"
	"mla/internal/nest"
	"mla/internal/sched"
	"mla/internal/wal"
)

// The traced pass must measure the same program as the untraced one: the
// engine picks code paths from the capabilities a control declares, so a
// decorator has to declare exactly the wrapped control's set.
func TestWrappedControlsDeclareTheSameCapabilities(t *testing.T) {
	n := nest.New(4)
	controls := []sched.Control{
		sched.NewShardedTwoPhase(16),
		sched.NewPreventer(n, breakpoint.Uniform{Levels: 4, C: 3}),
	}
	for _, inner := range controls {
		wrapped, err := wrapControl(inner, newTracer(), txnIndex)
		if err != nil {
			t.Errorf("%s: %v", inner.Name(), err)
			continue
		}
		if field := capabilityDiff(sched.CapabilitiesOf(wrapped), sched.CapabilitiesOf(inner)); field != "" {
			t.Errorf("%s: wrapped and inner disagree on capability %s", inner.Name(), field)
		}
		if wrapped.Name() != inner.Name() || wrapped.Stats() != inner.Stats() {
			t.Errorf("%s: Name/Stats are not forwarded", inner.Name())
		}
	}
	// The comparison has teeth: the two real controls differ from each other.
	if capabilityDiff(sched.CapabilitiesOf(controls[0]), sched.CapabilitiesOf(controls[1])) == "" {
		t.Error("capabilityDiff cannot tell ShardedTwoPhase from Preventer")
	}
	// A control whose capability set no decorator declares is refused, not
	// silently measured as a different program.
	// (Timestamp ordering alone declares RestartPrioritizer.)
	if _, err := wrapControl(sched.NewTimestamp(), newTracer(), txnIndex); err == nil {
		t.Error("wrapControl accepted a control with an undeclared capability set")
	}
}

func TestWrappedStoresKeepAsyncCommitAndCommitErr(t *testing.T) {
	tr := newTracer()
	db, err := wal.Open(wal.NewMedium(), map[model.EntityID]model.Value{"x": 0})
	if err != nil {
		t.Fatal(err)
	}
	pipe := wal.NewPipeline(db, 50*time.Microsecond)
	defer pipe.Close()
	async, err := wrapStore(engine.NewPipelinedWALStore(pipe), tr, txnIndex)
	if err != nil {
		t.Fatal(err)
	}
	ac, isAsync := async.(engine.AsyncCommitter)
	ce, hasErr := async.(engine.CommitErrer)
	if !isAsync || !hasErr {
		t.Fatalf("wrapped pipelined store: AsyncCommitter=%v CommitErrer=%v, want both", isAsync, hasErr)
	}
	var buf []byte
	buf, id := txnID(buf, 'x', 1)
	if _, err := async.Perform(id, 1, "x", func(v model.Value) (model.Value, string) { return v + 1, "inc" }); err != nil {
		t.Fatal(err)
	}
	<-ac.SubmitGroup([]model.TxnID{id})
	if err := ce.CommitErr(); err != nil {
		t.Fatal(err)
	}
	if got := async.Values()["x"]; got != 1 || !pipe.Committed(id) {
		t.Errorf("the wrapped store did not forward: x=%d committed=%v", got, pipe.Committed(id))
	}
	names := make(map[spanName]int)
	for _, s := range tr.all() {
		if s.Parent != 1 || s.Txn != 1 {
			t.Errorf("span %+v is not a child of transaction 1", s)
		}
		names[s.Name]++
	}
	if names[spStorePerform] != 1 || names[spStoreCommit] != 1 {
		t.Errorf("spans recorded: %v, want one store.perform and one store.commit", names)
	}

	// A plain store must not GAIN the capabilities either: the engine would
	// start a finalizer goroutine for it.
	plain, err := wrapStore(engine.NewVolatileStore(map[model.EntityID]model.Value{"x": 0}), tr, txnIndex)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := plain.(engine.AsyncCommitter); ok {
		t.Error("wrapped volatile store claims AsyncCommitter")
	}
	if _, ok := plain.(engine.CommitErrer); ok {
		t.Error("wrapped volatile store claims CommitErrer")
	}
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	tr := newTracer()
	tr.root(spEngineSubmit, 1, 0, 1000)
	req := tr.child(spSchedRequest, 1, 1, 100, 300) // 200 in sched
	tr.child(spStorePerform, 1, 1, 300, 700)        // 400 in store
	tr.child(spLockWait, 1, req, 150, 250)          // 100 of the request is lock wait (also sched)
	tr.child(spStoreCommit, 1, 1, 900, 1200)        // clipped to the root: 100
	sum := summarize(tr.all())
	if sum.Roots != 1 || sum.RootTotal != 1000 || sum.Orphans != 0 {
		t.Fatalf("summary %+v", sum)
	}
	// engine self = 1000 − 200 − 400 − 100; sched = (200−100) + 100; store = 400 + 300.
	want := map[string]time.Duration{"engine": 300, "sched": 200, "store": 700}
	for layer, w := range want {
		if got := sum.SelfByLay[layer]; got != w {
			t.Errorf("self time of %s = %v, want %v", layer, got, w)
		}
	}
}

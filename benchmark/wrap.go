package main

import (
	"fmt"
	"reflect"

	"mla/internal/engine"
	"mla/internal/model"
	"mla/internal/sched"
)

// The traced pass wraps the sched.Control and engine.Store the benchmark
// itself constructs. The engine discovers optional capabilities by type
// assertion (sched.CapabilitiesOf, engine.AsyncCommitter), so a decorator
// that implemented every optional method would switch on code paths the
// bare control never takes, and one that implemented none would switch
// paths off. Each wrapper type below therefore declares exactly the
// capability set of the control or store it is for; wrapControl and
// wrapStore refuse anything else, and verify the match before returning.

// spanner records a child span of transaction t's root, from start to now.
type spanner struct {
	tr *tracer
	// index maps a transaction ID to its trace index (root span ID); 0
	// means the transaction is not traced (warm-up).
	index func(model.TxnID) int64
}

func (s spanner) span(name spanName, t model.TxnID, start int64) {
	if i := s.index(t); i > 0 {
		s.tr.child(name, i, i, start, s.tr.now())
	}
}

// tracedControl forwards the seven required Control methods, timing each.
type tracedControl struct {
	spanner
	inner sched.Control
}

func (c *tracedControl) Name() string { return c.inner.Name() }

func (c *tracedControl) Begin(t model.TxnID, prio int64) {
	s := c.tr.now()
	c.inner.Begin(t, prio)
	c.span(spSchedBegin, t, s)
}

func (c *tracedControl) Request(t model.TxnID, seq int, x model.EntityID) sched.Decision {
	s := c.tr.now()
	d := c.inner.Request(t, seq, x)
	c.span(spSchedRequest, t, s)
	return d
}

func (c *tracedControl) Performed(t model.TxnID, seq int, x model.EntityID, cut int) {
	s := c.tr.now()
	c.inner.Performed(t, seq, x, cut)
	c.span(spSchedPerformed, t, s)
}

func (c *tracedControl) Finished(t model.TxnID) {
	s := c.tr.now()
	c.inner.Finished(t)
	c.span(spSchedFinished, t, s)
}

func (c *tracedControl) Aborted(victims []model.TxnID) {
	s := c.tr.now()
	c.inner.Aborted(victims)
	if len(victims) > 0 {
		c.span(spSchedAborted, victims[0], s)
	}
}

func (c *tracedControl) Stats() *sched.Stats { return c.inner.Stats() }

// tracedLocking is the wrapper for lock-table controls
// (sched.ShardedTwoPhase): Concurrent, StepQuiescent, Releaser,
// DeadlineAborter.
type tracedLocking struct {
	*tracedControl
	release  func(model.TxnID)
	deadline func(model.TxnID)
}

func (tracedLocking) ConcurrentSafe()    {}
func (tracedLocking) StepQuiescentSafe() {}

func (c tracedLocking) ReleaseAll(t model.TxnID) {
	s := c.tr.now()
	c.release(t)
	c.span(spSchedAborted, t, s)
}

func (c tracedLocking) DeadlineAborted(t model.TxnID) { c.deadline(t) }

// tracedClosure is the wrapper for closure-gate controls (sched.Preventer):
// Retirer, PartialAborter, DeadlineAborter.
type tracedClosure struct {
	*tracedControl
	retired   func(model.TxnID)
	abortedTo func(model.TxnID, int)
	deadline  func(model.TxnID)
}

func (c tracedClosure) Retired(t model.TxnID) {
	s := c.tr.now()
	c.retired(t)
	c.span(spSchedFinished, t, s)
}

func (c tracedClosure) AbortedTo(t model.TxnID, keep int) {
	s := c.tr.now()
	c.abortedTo(t, keep)
	c.span(spSchedAborted, t, s)
}

func (c tracedClosure) DeadlineAborted(t model.TxnID) { c.deadline(t) }

// wrapControl returns inner behind the decorator whose capability set
// equals inner's, or an error when no decorator matches.
func wrapControl(inner sched.Control, tr *tracer, index func(model.TxnID) int64) (sched.Control, error) {
	base := &tracedControl{spanner: spanner{tr, index}, inner: inner}
	caps := sched.CapabilitiesOf(inner)
	candidates := []sched.Control{
		tracedLocking{tracedControl: base, release: caps.ReleaseAll, deadline: caps.DeadlineAborted},
		tracedClosure{tracedControl: base, retired: caps.Retired, abortedTo: caps.AbortedTo, deadline: caps.DeadlineAborted},
	}
	for _, w := range candidates {
		if diff := capabilityDiff(sched.CapabilitiesOf(w), caps); diff == "" {
			return w, nil
		}
	}
	return nil, fmt.Errorf("benchmark: no trace decorator declares the capability set of control %q (%+v)", inner.Name(), capabilityShape(caps))
}

// capabilityShape reduces Capabilities to which hooks are present.
func capabilityShape(c sched.Capabilities) map[string]bool {
	shape := make(map[string]bool)
	v := reflect.ValueOf(c)
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Func:
			shape[v.Type().Field(i).Name] = !f.IsNil()
		case reflect.Bool:
			shape[v.Type().Field(i).Name] = f.Bool()
		}
	}
	return shape
}

// capabilityDiff names the first field on which the two capability sets
// disagree ("" when they match field for field). It walks the struct by
// reflection so a capability added to sched later is compared without
// anyone remembering to list it here.
func capabilityDiff(got, want sched.Capabilities) string {
	g, w := capabilityShape(got), capabilityShape(want)
	for name, present := range w {
		if g[name] != present {
			return name
		}
	}
	return ""
}

// tracedStore forwards the four required Store methods, timing each.
type tracedStore struct {
	spanner
	inner engine.Store
}

func (s *tracedStore) Perform(t model.TxnID, seq int, x model.EntityID, f func(model.Value) (model.Value, string)) (model.Step, error) {
	st := s.tr.now()
	step, err := s.inner.Perform(t, seq, x, f)
	s.span(spStorePerform, t, st)
	return step, err
}

func (s *tracedStore) Abort(set map[model.TxnID]bool) error {
	st := s.tr.now()
	err := s.inner.Abort(set)
	for t := range set {
		s.span(spStoreAbort, t, st)
		break
	}
	return err
}

func (s *tracedStore) CommitGroup(ids []model.TxnID) {
	st := s.tr.now()
	s.inner.CommitGroup(ids)
	if len(ids) > 0 {
		s.span(spStoreCommit, ids[0], st)
	}
}

func (s *tracedStore) Values() map[model.EntityID]model.Value { return s.inner.Values() }

// tracedAsyncStore is the wrapper for stores with group-commit pipelining
// (engine.PipelinedWALStore): AsyncCommitter and CommitErrer. The span
// covers handing the group to the pipeline; the ack channel is returned
// untouched so durability ordering is the store's own.
type tracedAsyncStore struct {
	*tracedStore
	async engine.AsyncCommitter
	cerr  engine.CommitErrer
}

func (s tracedAsyncStore) SubmitGroup(ids []model.TxnID) <-chan struct{} {
	st := s.tr.now()
	ack := s.async.SubmitGroup(ids)
	if len(ids) > 0 {
		s.span(spStoreCommit, ids[0], st)
	}
	return ack
}

func (s tracedAsyncStore) CommitErr() error { return s.cerr.CommitErr() }

// wrapStore returns inner behind the decorator that declares the same
// optional capabilities, or an error when inner has only one of the pair.
func wrapStore(inner engine.Store, tr *tracer, index func(model.TxnID) int64) (engine.Store, error) {
	base := &tracedStore{spanner: spanner{tr, index}, inner: inner}
	async, isAsync := inner.(engine.AsyncCommitter)
	cerr, hasErr := inner.(engine.CommitErrer)
	switch {
	case isAsync && hasErr:
		return tracedAsyncStore{tracedStore: base, async: async, cerr: cerr}, nil
	case !isAsync && !hasErr:
		return base, nil
	}
	return nil, fmt.Errorf("benchmark: no trace decorator for a store with AsyncCommitter=%v CommitErrer=%v", isAsync, hasErr)
}

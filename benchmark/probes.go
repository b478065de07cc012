package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"mla/internal/bank"
	"mla/internal/breakpoint"
	"mla/internal/coherent"
	"mla/internal/history"
	"mla/internal/lock"
	"mla/internal/model"
	"mla/internal/nest"
	mlanet "mla/internal/net"
	"mla/internal/sched"
	"mla/internal/serve"
	"mla/internal/shard"
	"mla/internal/wal"
)

// Per-layer probes: each times calls into ONE layer's public functions,
// from outside, on a fixed micro-input (probes take no seed: they are
// yardsticks for a layer, not workloads). A probe belongs to the -trace 1
// run of the workload that stresses its layer, so a number is measured
// once per full run, next to the end-to-end metrics it should explain:
//
//	serve_durable   serve.*, wal.*
//	engine_uniform  engine.*, sched.2pl_cycle_ns, lock.*, model.*, shard.*, net.*
//	bank_2pl        history.*
//	bank_mla        coherent.*, sched.prevent_cycle_us

// medianOp runs f reps times, timing each call, and returns the median.
func medianOp(reps int, f func(i int)) time.Duration {
	d := make([]int64, reps)
	for i := range d {
		t0 := time.Now()
		f(i)
		d[i] = int64(time.Since(t0))
	}
	return time.Duration(percentileOfUnsorted(d, 50))
}

// firstError keeps the first error a probe's many small calls produce, so
// the timed loops stay free of early returns.
type firstError struct{ err error }

func (f *firstError) note(err error) {
	if err != nil && f.err == nil {
		f.err = err
	}
}

// perOp times batches of n calls and returns the median batch's mean
// per-call time in ns — for calls too short to time one by one.
func perOp(batches, n int, f func(i int)) float64 {
	per := make([]float64, batches)
	for b := range per {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f(b*n + i)
		}
		per[b] = float64(time.Since(t0)) / float64(n)
	}
	return median(per)
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// ---- serve, wal ----

func probeServeLayers(rc runConfig, r *runReport) error {
	// serve.submit_us and serve.handler_us on the in-memory medium: the
	// front-end's own cost, with the device out of the picture.
	cfg := serveConfig("", "")
	srv, err := serve.New(cfg)
	if err != nil {
		return err
	}
	sess, err := srv.OpenSession(0)
	if err != nil {
		return err
	}
	var first firstError
	note := first.note
	r.Metrics["serve.submit_us"] = us(medianOp(rc.fixed(1000, 20), func(int) {
		_, err := srv.Submit(context.Background(), serve.TxnRequest{Session: sess.ID(), Kind: "transfer"})
		note(err)
	}))
	h := srv.Handler()
	body := fmt.Sprintf(`{"session":%q,"kind":"transfer"}`, sess.ID())
	r.Metrics["serve.handler_us"] = us(medianOp(rc.fixed(1000, 20), func(int) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/txns", strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			note(fmt.Errorf("serve.handler_us probe: status %d", rec.Code))
		}
	}))
	note(srv.Shutdown(context.Background()))
	if first.err != nil {
		return first.err
	}
	return probeWAL(rc, r)
}

func probeWAL(rc runConfig, r *runReport) error {
	init := map[model.EntityID]model.Value{"x": 0}
	inc := func(v model.Value) (model.Value, string) { return v + 1, "inc" }
	open := func(name string) (*wal.Medium, *wal.DB, string, error) {
		dir, err := freshDir(rc, name)
		if err != nil {
			return nil, nil, "", err
		}
		m, err := wal.OpenFile(dir, wal.FileOptions{})
		if err != nil {
			return nil, nil, "", err
		}
		db, err := wal.Open(m, init)
		return m, db, dir, err
	}
	var first firstError
	note := first.note

	// wal.fsync_us: one record appended, then the device sync alone.
	m, db, _, err := open("probe-fsync")
	if err != nil {
		return err
	}
	syncs := make([]int64, rc.fixed(200, 10))
	for i := range syncs {
		t := model.TxnID("f" + fmt.Sprint(i))
		_, err := db.Perform(t, 1, "x", inc)
		note(err)
		note(db.Commit(t))
		t0 := time.Now()
		note(db.Sync())
		syncs[i] = int64(time.Since(t0))
	}
	r.Metrics["wal.fsync_us"] = percentileOfUnsorted(syncs, 50) / 1e3
	note(m.Close())

	// wal.group_commit_us / _8_us: submit → durable ack through the
	// pipeline, one submitter and eight.
	for _, submitters := range []int{1, 8} {
		m, db, _, err := open(fmt.Sprintf("probe-gc%d", submitters))
		if err != nil {
			return err
		}
		p := wal.NewPipeline(db, 200*time.Microsecond) // serve.DefaultConfig's FlushInterval
		each := rc.fixed(150, 5)
		lat := make([][]int64, submitters)
		var wg sync.WaitGroup
		for s := 0; s < submitters; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				for i := 0; i < each; i++ {
					t := model.TxnID(fmt.Sprintf("g%d-%d", s, i))
					if _, err := p.Perform(t, 1, "x", inc); err != nil {
						return // surfaces below as a short sample
					}
					t0 := time.Now()
					<-p.Submit([]model.TxnID{t})
					lat[s] = append(lat[s], int64(time.Since(t0)))
				}
			}(s)
		}
		wg.Wait()
		note(p.Err())
		p.Close()
		var all []int64
		for _, l := range lat {
			all = append(all, l...)
		}
		if len(all) != submitters*each {
			note(fmt.Errorf("wal.group_commit probe: %d of %d commits", len(all), submitters*each))
		}
		name := "wal.group_commit_us"
		if submitters == 8 {
			name = "wal.group_commit_8_us"
		}
		r.Metrics[name] = percentileOfUnsorted(all, 50) / 1e3
		note(m.Close())
	}

	// wal.checkpoint_ms_at_10k / _50k and wal.open_ms_at_50k: the cost of
	// carrying every committed id. Known baseline: DB.doneIDs() re-sorts
	// and rewrites all of them at every checkpoint.
	m, db, dir, err := open("probe-ckpt")
	if err != nil {
		return err
	}
	committed := 0
	commitTo := func(target int) {
		ids := make([]model.TxnID, 0, 100)
		for committed < target {
			t := model.TxnID("k" + fmt.Sprint(committed))
			_, err := db.Perform(t, 1, "x", inc)
			note(err)
			ids = append(ids, t)
			committed++
			if len(ids) == cap(ids) {
				note(db.CommitGroup(ids))
				ids = ids[:0]
			}
		}
		note(db.CommitGroup(ids))
	}
	for _, at := range []int{10_000, 50_000} {
		commitTo(rc.fixed(at, at/100))
		t0 := time.Now()
		note(db.CheckpointCompact())
		r.Metrics[fmt.Sprintf("wal.checkpoint_ms_at_%dk", at/1000)] = ms(time.Since(t0))
	}
	last := model.TxnID("k" + fmt.Sprint(committed-1))
	note(m.Close())
	t0 := time.Now()
	m2, err := wal.OpenFile(dir, wal.FileOptions{})
	if err != nil {
		return err
	}
	db2, err := wal.Open(m2, init)
	if err != nil {
		return err
	}
	r.Metrics["wal.open_ms_at_50k"] = ms(time.Since(t0))
	if !db2.Committed(last) {
		note(fmt.Errorf("wal.open probe: reopened log lost a commit"))
	}
	note(m2.Close())
	return first.err
}

// ---- engine, sched (2PL), lock, model, shard, net ----

func probeEngineLayers(rc runConfig, r *runReport) error {
	// engine.submit_us: one caller, no contention at all.
	w, err := setupUniform(1, 1, nil)
	if err != nil {
		return err
	}
	single := closedLoop(loopSpec{first: 1, txns: rc.fixed(20_000, 500), callers: 1, keepRaw: true}, w.submit)
	if ck := w.finish(); !ck.OK || single.failedCount() > 0 {
		return fmt.Errorf("engine.submit_us probe: %s, %d failed", ck.Detail, single.failedCount())
	}
	r.Metrics["engine.submit_us"] = percentileOfUnsorted(single.Raw, 50) / 1e3

	// sched.2pl_cycle_ns: Begin, two Request/Performed pairs, Finished.
	ctl := sched.NewShardedTwoPhase(16)
	ids := make([]model.TxnID, 1024)
	for i := range ids {
		ids[i] = model.TxnID("p" + fmt.Sprint(i))
	}
	r.Metrics["sched.2pl_cycle_ns"] = perOp(5, rc.fixed(50_000, 100), func(i int) {
		t := ids[i%len(ids)]
		ctl.Begin(t, int64(i+1))
		ctl.Request(t, 1, w.ents[(2*i)%uniformEntities])
		ctl.Performed(t, 1, w.ents[(2*i)%uniformEntities], 0)
		ctl.Request(t, 2, w.ents[(2*i+1)%uniformEntities])
		ctl.Performed(t, 2, w.ents[(2*i+1)%uniformEntities], 0)
		ctl.Finished(t)
	})

	// lock.acquire_release_ns: uncontended; lock.contended_ns: GOMAXPROCS
	// goroutines on ONE stripe, distinct entities — the stripe mutex is the
	// only thing they share.
	prio := func(model.TxnID) int64 { return 1 }
	st := lock.NewStriped(16)
	r.Metrics["lock.acquire_release_ns"] = perOp(5, rc.fixed(100_000, 100), func(i int) {
		t := ids[i%len(ids)]
		st.Acquire(t, w.ents[i%uniformEntities], prio)
		st.Release(t)
	})
	one := lock.NewStriped(1)
	procs := runtime.GOMAXPROCS(0)
	contendedOps := rc.fixed(200_000, 1000)
	var wg sync.WaitGroup
	t0 := time.Now()
	for g := 0; g < procs; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			t := ids[g]
			for i := 0; i < contendedOps; i++ {
				one.Acquire(t, w.ents[(i*procs+g)%uniformEntities], prio)
				one.Release(t)
			}
		}(g)
	}
	wg.Wait()
	r.Metrics["lock.contended_ns"] = float64(time.Since(t0)) / float64(contendedOps)

	// model.intern_ns: the Intern/Release pair the control pays per
	// transaction.
	in := model.NewInterner[model.TxnID]()
	r.Metrics["model.intern_ns"] = perOp(5, rc.fixed(200_000, 100), func(i int) {
		t := ids[i%len(ids)]
		in.Intern(t)
		in.Release(t)
	})

	return probeShardAndNet(rc, r, w.ents)
}

// probeShardAndNet records shard.Group and the simulated bus. They feed no
// end-to-end metric: shard.Group has no workload until it is sound
// (ROADMAP item 1).
func probeShardAndNet(rc runConfig, r *runReport, ents []model.EntityID) error {
	n := rc.fixed(5000, 50)
	init := make(map[model.EntityID]model.Value, len(ents))
	for _, x := range ents {
		init[x] = 0
	}
	g := shard.NewGroup(shard.GroupConfig{Shards: 4}, init)
	// Pair every entity with a same-shard and an other-shard partner.
	byShard := make(map[int][]model.EntityID)
	for _, x := range ents {
		s := g.Router().Shard(x)
		byShard[s] = append(byShard[s], x)
	}
	inc := func(v model.Value) (model.Value, string) { return v + 1, "inc" }
	var first firstError
	submit := func(i int, a, b model.EntityID) {
		out, err := g.Submit(context.Background(), shard.Txn{
			ID:    model.TxnID("g" + fmt.Sprint(i)),
			Units: []shard.Unit{{Steps: []shard.Step{{Entity: a, Apply: inc}, {Entity: b, Apply: inc}}}},
		})
		if err != nil || !out.Committed {
			first.note(fmt.Errorf("shard.group probe: transaction %d: committed=%v err=%v", i, out.Committed, err))
		}
	}
	s0, s1 := byShard[0], byShard[1]
	r.Metrics["shard.group_submit_local_us"] = us(medianOp(n, func(i int) {
		submit(i, s0[i%len(s0)], s0[(i+1)%len(s0)])
	}))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r.Metrics["shard.group_submit_cross_us"] = us(medianOp(n, func(i int) {
		submit(n+i, s0[i%len(s0)], s1[i%len(s1)])
	}))
	runtime.ReadMemStats(&after)
	r.Metrics["shard.group_allocs_per_txn"] = float64(after.Mallocs-before.Mallocs) / float64(n)

	// net.deliver_ns: Send + the Tick that matures it, one-hop latency 1.
	bus := mlanet.New(2, 1, nil)
	delivered := 0
	bus.OnDeliver(func(mlanet.Message) { delivered++ })
	sends := rc.fixed(100_000, 100)
	r.Metrics["net.deliver_ns"] = perOp(5, sends, func(i int) {
		bus.Send(mlanet.Message{Kind: mlanet.Heartbeat, From: 0, To: 1})
		bus.Tick(int64(i + 1))
	})
	if delivered != 5*sends {
		first.note(fmt.Errorf("net.deliver_ns probe: %d of %d messages delivered", delivered, 5*sends))
	}
	return first.err
}

// ---- history ----

// serialBankHistory is the checker's probe input: a bank.Generate workload
// run serially, as a history. Serial, so the input is identical every run.
func serialBankHistory(transfers, creditors, audits int) (*history.History, *bank.Workload, error) {
	wl := bank.Generate(bank.Params{
		Families: bankFamilies, AccountsPerFamily: bankAccountsPerFam, InitialBalance: 1000,
		Transfers: transfers, CreditorAudits: creditors, BankAudits: audits,
		Amount: 100, Reserve: 125, CrossFamilyPct: bankCrossFamilyPct, Seed: 1,
	})
	vals := make(map[model.EntityID]model.Value, len(wl.Init))
	for x, v := range wl.Init {
		vals[x] = v
	}
	exec, err := model.RunSerial(wl.Programs, vals)
	if err != nil {
		return nil, nil, err
	}
	h, err := history.FromExecution(exec, wl.Nest, wl.Spec)
	return h, wl, err
}

func probeBankLayers(rc runConfig, r *runReport) error {
	// history.check_ms_at_1k / _4k: Check over ≈1,000 and ≈4,000 steps.
	for _, size := range []struct {
		name                         string
		transfers, creditors, audits int
	}{
		{"history.check_ms_at_1k", 200, 16, 4},
		{"history.check_ms_at_4k", 800, 64, 16},
	} {
		h, _, err := serialBankHistory(rc.fixed(size.transfers, 20), rc.fixed(size.creditors, 2), rc.fixed(size.audits, 1))
		if err != nil {
			return err
		}
		t0 := time.Now()
		rep, err := history.Check(h)
		d := time.Since(t0)
		if err != nil {
			return err
		}
		if !rep.Correctable {
			return fmt.Errorf("%s probe: a serial history is not correctable: %s", size.name, rep.Summary())
		}
		r.Metrics[size.name] = ms(d)
		r.Samples[size.name] = rep.Steps
	}

	// history.record_ns: Recorder.StepPerformed; history.spool_append_us:
	// the same event through the durable spool (one write per line).
	h, wl, err := serialBankHistory(20, 2, 1)
	if err != nil {
		return err
	}
	var steps []history.Event
	for _, ev := range h.Events {
		if ev.Kind == history.KindStep {
			steps = append(steps, ev)
		}
	}
	rec := history.NewRecorder(wl.Nest)
	r.Metrics["history.record_ns"] = perOp(5, rc.fixed(10_000, 100), func(i int) {
		ev := steps[i%len(steps)]
		rec.StepPerformed(ev.Txn, ev.Seq, ev.Entity, 0, ev.Cut)
	})
	dir, err := freshDir(rc, "probe-spool")
	if err != nil {
		return err
	}
	sp, err := history.OpenSpoolFile(filepath.Join(dir, "history.spool"), 4)
	if err != nil {
		return err
	}
	r.Metrics["history.spool_append_us"] = perOp(5, rc.fixed(1_000, 20), func(i int) {
		ev := steps[i%len(steps)]
		sp.StepPerformed(ev.Txn, ev.Seq, ev.Entity, 0, ev.Cut)
	}) / 1e3
	if err := sp.Err(); err != nil {
		return err
	}
	return sp.Close()
}

// ---- coherent, sched (Preventer) ----

// closureFeed is a deterministic stream of bank-shaped steps for driving
// coherent.Online and sched.Preventer directly: transfer j withdraws from
// three accounts of family j mod 16 and deposits into two accounts of
// another family, with the Section 4.2 cuts (level 2 after the last
// withdrawal, level 3 elsewhere).
type closureFeed struct {
	world bank.World
	nest  *nest.Nest
}

func newClosureFeed() *closureFeed {
	return &closureFeed{
		world: bank.World{Families: bankFamilies, AccountsPerFamily: bankAccountsPerFam, InitialBalance: 1000},
		nest:  nest.New(4),
	}
}

func (f *closureFeed) txn(j int) (model.TxnID, [5]model.EntityID) {
	t := model.TxnID("t" + fmt.Sprint(j))
	fam := j % bankFamilies
	tf := (fam + 1 + j%(bankFamilies-1)) % bankFamilies
	if !f.nest.Has(t) {
		f.nest.Add(t, "cust", fmt.Sprintf("fam-%02d", fam))
	}
	return t, [5]model.EntityID{
		f.world.Account(fam, j%4), f.world.Account(fam, (j+1)%4), f.world.Account(fam, (j+2)%4),
		f.world.Account(tf, j%4), f.world.Account(tf, (j+1)%4),
	}
}

// cut is the breakpoint after step seq (1-based) of a 5-step transfer.
func (closureFeed) cut(seq int) int {
	switch seq {
	case 3:
		return 2
	case 5:
		return 0 // last step: no interior boundary follows
	}
	return 3
}

func probeClosureLayers(rc runConfig, r *runReport) error {
	// coherent.*_at_256 / _at_1024: grow an Online to the size, then time
	// the preview and the insertion of the next transactions' steps.
	feed := newClosureFeed()
	oc := coherent.NewOnline(4, feed.nest.Level)
	j := 0
	addTxn := func(timed bool) (preview, add time.Duration, steps int, err error) {
		t, ents := feed.txn(j)
		j++
		for s, x := range ents {
			t0 := time.Now()
			oc.ForEachPredOfNewStep(t, x, func(model.TxnID, int) {})
			t1 := time.Now()
			ok := oc.AddStep(t, x)
			t2 := time.Now()
			if !ok {
				return 0, 0, 0, fmt.Errorf("coherent probe: a serial feed closed a cycle at %s step %d", t, s+1)
			}
			if c := feed.cut(s + 1); c > 0 {
				oc.AddCut(t, c)
			}
			if timed {
				preview += t1.Sub(t0)
				add += t2.Sub(t1)
				steps++
			}
		}
		return
	}
	for _, size := range []int{256, 1024} {
		for oc.Steps() < rc.fixed(size, size/16) {
			if _, _, _, err := addTxn(false); err != nil {
				return err
			}
		}
		var preview, add time.Duration
		steps := 0
		for k := 0; k < 8; k++ { // 40 timed steps just past the size
			p, a, n, err := addTxn(true)
			if err != nil {
				return err
			}
			preview, add, steps = preview+p, add+a, steps+n
		}
		r.Metrics[fmt.Sprintf("coherent.preview_us_at_%d", size)] = us(preview) / float64(steps)
		r.Metrics[fmt.Sprintf("coherent.add_step_us_at_%d", size)] = us(add) / float64(steps)
	}
	// coherent.rebuild_ms_at_1024: dropping an early transaction, whose
	// steps have live successors, forces the filter-and-replay path.
	t0 := time.Now()
	oc.Rebuild(map[model.TxnID]bool{"t0": true})
	r.Metrics["coherent.rebuild_ms_at_1024"] = ms(time.Since(t0))

	// sched.prevent_cycle_us: one transfer through a Preventer that holds
	// 50 committed ones. Aborted (untimed) takes it out again, so every
	// repetition meets the same closure.
	pfeed := newClosureFeed()
	spec := breakpoint.Uniform{Levels: 4, C: 3} // cuts are passed to Performed explicitly below
	for k := 0; k <= 50; k++ {
		pfeed.txn(k) // registers t0..t50 in the nest before the control reads it
	}
	p := sched.NewPreventer(pfeed.nest, spec)
	run := func(k int) error {
		t, ents := pfeed.txn(k)
		p.Begin(t, int64(k+1))
		for s, x := range ents {
			if d := p.Request(t, s+1, x); d.Kind != sched.Grant {
				return fmt.Errorf("sched.prevent_cycle_us probe: serial request %s[%d] got %v", t, s+1, d.Kind)
			}
			p.Performed(t, s+1, x, pfeed.cut(s+1))
		}
		p.Finished(t)
		return nil
	}
	for k := 0; k < 50; k++ {
		if err := run(k); err != nil {
			return err
		}
	}
	cycles := make([]int64, rc.fixed(200, 5))
	for i := range cycles {
		t0 := time.Now()
		if err := run(50); err != nil {
			return err
		}
		cycles[i] = int64(time.Since(t0))
		p.Aborted([]model.TxnID{"t50"})
	}
	r.Metrics["sched.prevent_cycle_us"] = percentileOfUnsorted(cycles, 50) / 1e3
	return nil
}

package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"mla/internal/sched"
)

// Load shape of the in-process workloads, per second of -seconds budget.
// The counts were sized on the reference host (README) so that one run
// spends about the budget measuring; they are constants so every host runs
// the same number of transactions.
const (
	uniformTxnsPerSecond = 150_000
	bank2PLTxnsPerSecond = 100_000
	inprocWindow         = 100_000 // transactions per latency window

	mlaEpochTxns       = 110 // one block of the shared request list
	mlaEpochsPerSecond = 4
	mlaEpochsPerWindow = 10 // 1,100 samples: the fewest epochs that support a p99
	// bank_mla alone runs ONE caller. The Preventer is not a concurrent
	// control: a second caller adds no parallelism, only blocked requests,
	// and on the reference host identical inputs then differed by ±10 % in
	// throughput and ±13 % in p50 from run to run (cross-vCPU wake-ups),
	// against ±2-4 % with one caller, which is no slower (≈ 520 vs 480
	// txn/s). A yardstick has to repeat.
	mlaCallers = 1

	// The traced pass and its untraced twin are shorter: long enough that
	// their throughputs can be compared, short enough to keep every span.
	uniformTracedTxns = 100_000
	bank2PLTracedTxns = 40_000
	mlaTracedEpochs   = mlaEpochsPerWindow // one latency window
	traceFileTxns     = 2_000              // transactions written to the Chrome trace

	bankAuditedTxns = 500 // the history-recorded phase
	inprocSetupReps = 15
	mlaSetupReps    = 7 // a set-up is a whole warm-up epoch
)

// passNames labels the two passes of a -trace 1 run.
var passNames = [2]string{"plain", "traced"}

// timeSetups runs setup reps times and returns the median duration in
// seconds. Each setup is torn down before the next starts.
func timeSetups(reps int, setup func() (teardown func(), err error)) (float64, error) {
	times := make([]float64, 0, reps)
	for r := 0; r < reps; r++ {
		runtime.GC() // the previous rep's world is garbage; collect it off the clock
		t0 := time.Now()
		teardown, err := setup()
		d := time.Since(t0)
		if err != nil {
			return 0, err
		}
		teardown()
		times = append(times, d.Seconds())
	}
	return median(times), nil
}

// cpuPerTxn is a pass's rusage CPU per committed transaction, µs.
func cpuPerTxn(p *passResult) float64 { return p.perTxn(float64(p.Cost.cpu.Microseconds())) }

// endToEndFrom fills the end-to-end metrics from the closed-loop passes
// `loads` (the median over them when a workload repeats the phase), and
// prints as notes the workload-level numbers that are per-layer metrics
// (README, "demoted") from this full-size run: latency from `lat` (the same
// pass for the in-process workloads, the open-loop rung for serve_durable),
// CPU and peak RSS. -trace 1 reports those officially, from a shorter pass.
func (r *runReport) endToEndFrom(setupS float64, setupReps int, loads []*passResult, lat *passResult) {
	over := func(f func(*passResult) float64) float64 {
		vs := make([]float64, len(loads))
		for i, p := range loads {
			vs[i] = f(p)
		}
		return median(vs)
	}
	r.Metrics["setup_s"] = setupS
	r.Metrics["throughput_tps"] = over((*passResult).throughput)
	r.Metrics["allocs_per_txn"] = over(func(p *passResult) float64 { return p.perTxn(float64(p.Cost.mallocs)) })
	r.Samples["setup_s"] = setupReps
	for _, p := range loads {
		r.Samples["throughput_tps"] += p.Committed
	}
	top := highestPercentile(int(lat.Hist.Count()))
	r.Notes = append(r.Notes,
		fmt.Sprintf("unbounded: lat_p50_us = %.4f, lat_p99_us = %.4f (median over %d windows of >= %d samples; n=%d), cpu_us_per_txn = %.4f, peak_rss_mb = %.4f",
			median(lat.Lat.P50s)/1e3, median(lat.Lat.P99s)/1e3, len(lat.Lat.P99s), lat.Lat.PerWindow, lat.Lat.Samples, over(cpuPerTxn), peakRSSMB()),
		fmt.Sprintf("whole-run highest supported percentile: p%g = %.1f us (n=%d)", top, float64(lat.Hist.Percentile(top))/1e3, lat.Hist.Count()))
	if len(lat.Lat.P99s) == 0 {
		r.check(checkResult{Name: "latency_windows", Detail: "no window had the 1,000 samples a p99 needs"})
	}
}

// engineCounters fills, from the plain pass of a -trace 1 run on an engine
// session, the workload-level per-layer metrics and the counters the pass
// yields through public Outcome fields and the control's public Stats().
// Call it right after that pass: peak RSS must not include the traced
// pass's spans.
func (r *runReport) engineCounters(p *passResult, st sched.Stats) {
	r.Metrics["lat_p50_us"] = median(p.Lat.P50s) / 1e3
	r.Metrics["lat_p99_us"] = median(p.Lat.P99s) / 1e3
	r.Samples["lat_p50_us"], r.Samples["lat_p99_us"] = p.Lat.Samples, p.Lat.Samples
	r.Metrics["cpu_us_per_txn"] = cpuPerTxn(p)
	r.Metrics["peak_rss_mb"] = peakRSSMB()
	r.Metrics["harness.failed_share"] = float64(p.failedCount()) / float64(p.Offered)
	r.Metrics["engine.restarts_per_txn"] = p.perTxn(float64(p.Restarts))
	if p.Service > 0 {
		r.Metrics["engine.lock_wait_share"] = float64(p.Waited) / float64(p.Service)
	}
	r.Metrics["sched.waits_per_txn"] = p.perTxn(float64(st.Waits))
	r.Metrics["sched.wounds_per_txn"] = p.perTxn(float64(st.Wounds))
}

// traceMetrics fills trace.*: the throughput cost of tracing and the self
// time per layer, and writes the Chrome trace.
func (r *runReport) traceMetrics(rc runConfig, plain, traced *passResult, tr *tracer) error {
	if tp := plain.throughput(); tp > 0 {
		r.Metrics["trace.overhead_pct"] = (tp - traced.throughput()) / tp * 100
	}
	spans := tr.all()
	sum := summarize(spans)
	if sum.Roots > 0 {
		for _, layer := range traceLayers {
			r.Metrics["trace."+layer+"_self_us"] = float64(sum.SelfByLay[layer].Microseconds()) / float64(sum.Roots)
		}
	}
	if sum.RootTotal > 0 {
		r.Metrics["trace.self_sum_ratio"] = float64(sum.SelfTotal) / float64(sum.RootTotal)
	}
	ck := checkResult{Name: "trace_self_times_add_up", Detail: fmt.Sprintf("%d roots, %d spans, self/root %.3f, %d orphans",
		sum.Roots, len(spans), r.Metrics["trace.self_sum_ratio"], sum.Orphans)}
	ratio := r.Metrics["trace.self_sum_ratio"]
	ck.OK = sum.Roots > 0 && ratio > 0.9 && ratio < 1.1
	r.check(ck)
	return writeChromeTrace(filepath.Join(rc.OutDir, "trace-"+r.Workload+".json"), spans, traceFileTxns)
}

// tracedWorld is what the -trace 1 passes need from a resident in-process
// world: how to submit, the undecorated control (for its Stats), and the
// output checks.
type tracedWorld struct {
	submit submitFn
	ctl    sched.Control
	finish func() []checkResult
}

// plainAndTraced runs the two passes of a -trace 1 run on a resident
// in-process workload — n transactions on a fresh world without spans, then
// the same n on another fresh world with them — and fills the counters from
// the first and the trace metrics from the pair.
func (r *runReport) plainAndTraced(rc runConfig, n, callers int, build func(tr *tracer) (tracedWorld, error)) error {
	var passes [2]passResult
	var tr *tracer
	for k := range passes {
		if k == 1 {
			tr = newTracer()
		}
		w, err := build(tr)
		if err != nil {
			return err
		}
		passes[k] = closedLoop(loopSpec{first: 1, txns: n, callers: callers, window: inprocWindow, tr: tr}, w.submit)
		if k == 0 {
			r.engineCounters(&passes[0], *w.ctl.Stats())
		}
		r.checkPhase(passNames[k], w.finish()...)
		r.count(&passes[k])
	}
	return r.traceMetrics(rc, &passes[0], &passes[1], tr)
}

func runEngineUniform(rc runConfig) (*runReport, error) {
	callers := maxProcs()
	rep := newReport("engine_uniform", rc, callers)
	if rc.Trace {
		n := rc.fixed(uniformTracedTxns, 2_000)
		rep.RequestHash = requestHash(rep.Workload, rc.Seed, n)
		err := rep.plainAndTraced(rc, n, callers, func(tr *tracer) (tracedWorld, error) {
			w, err := setupUniform(rc.Seed, callers, tr)
			if err != nil {
				return tracedWorld{}, err
			}
			return tracedWorld{w.submit, w.ctl, func() []checkResult { return []checkResult{w.finish()} }}, nil
		})
		if err != nil {
			return nil, err
		}
		return rep, probeEngineLayers(rc, rep)
	}

	txns := rc.scaled(uniformTxnsPerSecond, 2*inprocWindow/50)
	rep.RequestHash = requestHash(rep.Workload, rc.Seed, txns)
	setupS, err := timeSetups(inprocSetupReps, func() (func(), error) {
		w, err := setupUniform(rc.Seed, callers, nil)
		if err != nil {
			return nil, err
		}
		return func() { w.sess.Close() }, nil
	})
	if err != nil {
		return nil, err
	}
	w, err := setupUniform(rc.Seed, callers, nil)
	if err != nil {
		return nil, err
	}
	p := closedLoop(loopSpec{first: 1, txns: txns, callers: callers, window: rc.window(), tr: nil}, w.submit)
	rep.check(w.finish())
	rep.count(&p)
	rep.endToEndFrom(setupS, inprocSetupReps, []*passResult{&p}, &p)
	return rep, nil
}

// window is the in-process latency window, shrunk with the smoke scale so a
// 1/50 run still closes windows that support a p99.
func (rc runConfig) window() int {
	w := int(float64(inprocWindow) * rc.Scale)
	if min := 1_000 * maxProcs(); w < min {
		w = min
	}
	return w
}

func runBank2PL(rc runConfig) (*runReport, error) {
	callers := maxProcs()
	rep := newReport("bank_2pl", rc, callers)
	mix := mixOf(rep.Workload)
	list := newBankList(rc.Seed, mix)

	// The audited phase: a short recorded run, checked by the independent
	// checker. It runs in both modes — whatever is measured is also checked.
	audited := rc.fixed(bankAuditedTxns, 2*mix.block())
	auditSeed := rc.Seed + 1<<32 // its own list, so the measured list starts at request 1
	aw, err := newBankWorld(newBankList(auditSeed, mix), callers, bankOptions{record: true}, nil)
	if err != nil {
		return nil, err
	}
	ap := closedLoop(loopSpec{first: 1, txns: audited, callers: callers, keepRaw: true}, aw.submit)
	rep.checkPhase("audited", aw.finish()...)
	rep.count(&ap)
	t0 := time.Now()
	hck, hrep := aw.checkHistory()
	checkTime := time.Since(t0)
	rep.checkPhase("audited", hck)

	if rc.Trace {
		if hrep != nil && checkTime > 0 {
			rep.Metrics["history.audit_steps_per_s"] = float64(hrep.Steps) / checkTime.Seconds()
		}
		n := rc.fixed(bank2PLTracedTxns, 10*mix.block())
		rep.RequestHash = requestHash(rep.Workload, rc.Seed, n)
		err := rep.plainAndTraced(rc, n, callers, func(tr *tracer) (tracedWorld, error) {
			w, err := newBankWorld(list, callers, bankOptions{}, tr)
			if err != nil {
				return tracedWorld{}, err
			}
			return tracedWorld{w.submit, w.ctl, w.finish}, nil
		})
		if err != nil {
			return nil, err
		}
		return rep, probeBankLayers(rc, rep)
	}

	txns := rc.scaled(bank2PLTxnsPerSecond, 20*mix.block())
	rep.RequestHash = requestHash(rep.Workload, rc.Seed, txns)
	warm := 10 * mix.block()
	setup := func() (*bankWorld, error) {
		w, err := newBankWorld(list, callers, bankOptions{}, nil)
		if err != nil {
			return nil, err
		}
		// Warm-up: the first blocks of the list, so maps, pools and the
		// interner reach steady size before timing. The measured pass
		// starts after them.
		wp := closedLoop(loopSpec{first: 1, txns: warm, callers: callers, keepRaw: true}, w.submit)
		if n := wp.failedCount(); n > 0 {
			w.sess.Close()
			return nil, fmt.Errorf("bank_2pl: %d warm-up transactions failed: %v", n, wp.Failed)
		}
		return w, nil
	}
	setupS, err := timeSetups(inprocSetupReps, func() (func(), error) {
		w, err := setup()
		if err != nil {
			return nil, err
		}
		return func() { w.sess.Close() }, nil
	})
	if err != nil {
		return nil, err
	}
	w, err := setup()
	if err != nil {
		return nil, err
	}
	p := closedLoop(loopSpec{first: int64(warm) + 1, txns: txns - warm, callers: callers, window: rc.window()}, w.submit)
	rep.checkPhase("measured", w.finish()...)
	rep.count(&p)
	rep.endToEndFrom(setupS, inprocSetupReps, []*passResult{&p}, &p)
	return rep, nil
}

// mlaPass runs consecutive epochs of the shared request list, each on a
// fresh session + Preventer + Recorder, and folds them into one pass:
// elapsed is the sum of the epochs' submit loops (construction, the
// checker and the output checks are outside it), latency windows are
// mlaEpochsPerWindow epochs each.
type mlaPass struct {
	passResult
	checks []checkResult
	growth []float64 // per epoch: time of the second half of its commits / first half
	stats  sched.Stats
}

func runMLAEpochs(list bankList, callers, firstEpoch, epochs int, tr *tracer) (*mlaPass, error) {
	mp := &mlaPass{}
	mp.Failed = make(map[string]int)
	var windows [][]int64
	var cur []int64
	allOK := map[string]bool{"money_conserved": true, "bank_audits_exact": true, "history_correctable": true}
	detail := map[string]string{}
	for e := firstEpoch; e < firstEpoch+epochs; e++ {
		w, err := newBankWorld(list, callers, bankOptions{mla: true, record: true}, tr)
		if err != nil {
			return nil, err
		}
		p := closedLoop(loopSpec{first: int64(e*mlaEpochTxns) + 1, txns: mlaEpochTxns, callers: callers, keepRaw: true, tr: tr}, w.submit)
		st := w.ctl.Stats()
		mp.stats.Waits += st.Waits
		mp.stats.Wounds += st.Wounds
		cks := w.finish()
		hck, _ := w.checkHistory()
		for _, ck := range append(cks, hck) {
			if !ck.OK && allOK[ck.Name] {
				allOK[ck.Name] = false
				detail[ck.Name] = fmt.Sprintf("epoch %d: %s", e, ck.Detail)
			}
		}
		mp.Offered += p.Offered
		mp.Committed += p.Committed
		for s, n := range p.Failed {
			mp.Failed[s] += n
		}
		mp.Elapsed += p.Elapsed
		mp.Cost.cpu += p.Cost.cpu
		mp.Cost.mallocs += p.Cost.mallocs
		mp.Restarts += p.Restarts
		mp.Waited += p.Waited
		mp.Service += p.Service
		if mp.Hist == nil {
			mp.Hist = p.Hist
		} else {
			mp.Hist.Merge(p.Hist)
		}
		cur = append(cur, p.Raw...)
		if (e-firstEpoch+1)%mlaEpochsPerWindow == 0 {
			windows = append(windows, cur)
			cur = nil
		}
		if len(p.Done) >= 4 {
			sort.Slice(p.Done, func(i, j int) bool { return p.Done[i] < p.Done[j] })
			half := p.Done[len(p.Done)/2-1]
			if half > 0 {
				mp.growth = append(mp.growth, float64(p.Done[len(p.Done)-1]-half)/float64(half))
			}
		}
	}
	if len(cur) > 0 {
		windows = append(windows, cur)
	}
	mp.Lat = windowedPercentiles(windows)
	for _, name := range []string{"money_conserved", "bank_audits_exact", "history_correctable"} {
		ck := checkResult{Name: name, OK: allOK[name], Detail: detail[name]}
		if ck.OK {
			ck.Detail = fmt.Sprintf("%d epochs", epochs)
		}
		mp.checks = append(mp.checks, ck)
	}
	return mp, nil
}

func runBankMLA(rc runConfig) (*runReport, error) {
	callers := mlaCallers
	rep := newReport("bank_mla", rc, callers)
	list := newBankList(rc.Seed, mixOf(rep.Workload))

	if rc.Trace {
		epochs := rc.fixed(mlaTracedEpochs, 1)
		rep.RequestHash = requestHash(rep.Workload, rc.Seed, epochs*mlaEpochTxns)
		plain, err := runMLAEpochs(list, callers, 0, epochs, nil)
		if err != nil {
			return nil, err
		}
		rep.engineCounters(&plain.passResult, plain.stats)
		rep.Metrics["coherent.growth_ratio"] = median(plain.growth)
		tr := newTracer()
		traced, err := runMLAEpochs(list, callers, 0, epochs, tr)
		if err != nil {
			return nil, err
		}
		for k, mp := range []*mlaPass{plain, traced} {
			rep.checkPhase(passNames[k], mp.checks...)
			rep.count(&mp.passResult)
		}
		if err := rep.traceMetrics(rc, &plain.passResult, &traced.passResult, tr); err != nil {
			return nil, err
		}
		return rep, probeClosureLayers(rc, rep)
	}

	epochs := rc.scaled(mlaEpochsPerSecond, 2)
	// Epoch 0 is the warm-up: it is what set-up costs, and it is not measured.
	rep.RequestHash = requestHash(rep.Workload, rc.Seed, (epochs+1)*mlaEpochTxns)
	setupS, err := timeSetups(mlaSetupReps, func() (func(), error) {
		mp, err := runMLAEpochs(list, callers, 0, 1, nil)
		if err == nil && mp.failedCount() > 0 {
			err = fmt.Errorf("bank_mla: warm-up epoch failed %d transactions: %v", mp.failedCount(), mp.Failed)
		}
		return func() {}, err
	})
	if err != nil {
		return nil, err
	}
	mp, err := runMLAEpochs(list, callers, 1, epochs, nil)
	if err != nil {
		return nil, err
	}
	rep.check(mp.checks...)
	rep.count(&mp.passResult)
	rep.endToEndFrom(setupS, mlaSetupReps, []*passResult{&mp.passResult}, &mp.passResult)
	return rep, nil
}

package main

import (
	"encoding/json"
	"testing"
	"time"
)

// TestSmoke runs every workload in both modes at 1/50 scale — every phase,
// every output check and every probe — so the tier-1 `go test ./...` keeps
// the benchmark compiling against the packages it measures and its checks
// live. It asserts behaviour, not speed: no number here is a result.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots servers and fsyncs")
	}
	dir := t.TempDir()
	reported := make(map[string]bool) // per-layer metrics some workload's traced run filled
	for _, wd := range workloads {
		for _, trace := range []bool{false, true} {
			rc := runConfig{Seed: 42, Seconds: 15, Trace: trace, Scale: 1.0 / 50, OutDir: dir}
			t0 := time.Now()
			rep, err := execute(wd.Name, rc)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wd.Name, trace, err)
			}
			t.Logf("%s trace=%v: %v", wd.Name, trace, time.Since(t0).Round(time.Millisecond))
			for _, c := range rep.Checks {
				// A 1/50 run is allowed to be too short for a p99; every
				// real output check must hold.
				if !c.OK && c.Name != "latency_windows" {
					t.Errorf("%s trace=%v: check %s failed: %s", wd.Name, trace, c.Name, c.Detail)
				}
			}
			if len(rep.Checks) == 0 {
				t.Errorf("%s trace=%v: no output check ran", wd.Name, trace)
			}
			if rep.Attempted < 1 || rep.Failed != 0 {
				t.Errorf("%s trace=%v: attempted %d, failed %d (%v)", wd.Name, trace, rep.Attempted, rep.Failed, rep.FailedBy)
			}
			if rep.RequestHash == "" || rep.Host.GOMAXPROCS != maxProcs() {
				t.Errorf("%s trace=%v: missing request hash or host stamp: %+v", wd.Name, trace, rep.Host)
			}

			// The result line is the driver's contract: exactly four keys,
			// and exactly the active table's metrics.
			var line map[string]json.RawMessage
			if err := json.Unmarshal([]byte(rep.resultLine()), &line); err != nil {
				t.Fatal(err)
			}
			if len(line) != 4 {
				t.Errorf("%s: result line has keys %v", wd.Name, line)
			}
			var metrics map[string]metricValue
			if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
				t.Fatal(err)
			}
			if len(metrics) != len(rep.defs()) {
				t.Errorf("%s trace=%v: %d metrics on the result line, the table has %d", wd.Name, trace, len(metrics), len(rep.defs()))
			}
			for name, v := range rep.Metrics {
				if trace && v != 0 {
					reported[name] = true
				}
			}
			if !trace {
				for _, d := range endToEnd {
					if metrics[d.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, must never be 0", wd.Name, d.Name, metrics[d.Name].Value)
					}
				}
			}
		}
	}

	// A probe nobody runs is a per-layer metric that silently reads 0
	// forever. These counters are legitimately 0 on a healthy small run:
	mayBeZero := map[string]bool{
		"serve.shed": true, "serve.budget_denied": true, "serve.deadline": true, "serve.gate_queued_max": true,
		"serve.max_rate_in_slo": true, "harness.failed_share": true,
		"engine.restarts_per_txn": true, "engine.lock_wait_share": true,
		"sched.waits_per_txn": true, "sched.wounds_per_txn": true,
		"serve.ladder_p99_us_at_2000": true, "serve.ladder_p99_us_at_3000": true, "serve.ladder_p99_us_at_6000": true,
		"lat_p50_us": true, "lat_p99_us": true, "gen.late_p99_us": true, // need full-size windows
	}
	for _, d := range perLayer {
		if !reported[d.Name] && !mayBeZero[d.Name] {
			t.Errorf("per-layer metric %s read 0 on every workload", d.Name)
		}
	}
}

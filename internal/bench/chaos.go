package bench

import (
	"fmt"

	"mla/internal/coherent"
	"mla/internal/dist"
	"mla/internal/fault"
	"mla/internal/history"
	"mla/internal/metrics"
	"mla/internal/sim"
)

// E18Chaos sweeps the distributed preventer's failure space: message loss
// rate, reordering, partition duration, and processor-crash count, each
// applied to the full banking workload on the bus-backed multi-node
// control. The claim under test is the robustness contract of the
// partition- and failure-tolerant design: every completed run still admits
// only correctable executions — by the Theorem 2 analysis and by the
// independent history.Check, both against the true nest — and preserves the
// banking invariants; committed transactions are never lost or re-decided; and no
// schedule hangs the run — transactions stranded by a partition or crash
// are aborted within the grace period and retried after the fault clears.
// Failures cost throughput (waits, grace aborts, crash aborts,
// retransmissions — all reported), never correctness.
func E18Chaos(o Config) (*metrics.Table, error) {
	t := metrics.NewTable("E18: distributed prevention under partitions, loss, and processor crashes (banking)",
		"scenario", "throughput", "p99-lat", "aborts", "grace-ab", "crash-ab", "probe-dl", "retransmit", "net-drop")
	sc := o.scale()
	seeds := 2 * sc

	type scenario struct {
		name string
		plan fault.Plan
	}
	scenarios := []scenario{
		{"baseline", fault.Plan{}},
		{"loss=0.1", fault.Plan{NetDropRate: 0.1}},
		{"loss=0.3", fault.Plan{NetDropRate: 0.3}},
		{"reorder", fault.Plan{NetDelayRate: 0.4, NetExtraDelay: 60}},
		{"part=300", fault.Plan{
			Partitions: []fault.Partition{{At: 100, Heal: 400}},
		}},
		{"part=900+loss", fault.Plan{
			NetDropRate: 0.1,
			Partitions:  []fault.Partition{{At: 100, Heal: 1000}},
		}},
		{"crash=1", fault.Plan{
			ProcCrashes: []fault.ProcCrash{{Proc: 1, At: 120, Rejoin: 520}},
		}},
		{"crash=3+loss", fault.Plan{
			NetDropRate: 0.1,
			ProcCrashes: []fault.ProcCrash{
				{Proc: 1, At: 100, Rejoin: 500},
				{Proc: 2, At: 250, Rejoin: 650},
				{Proc: 3, At: 400, Rejoin: 800},
			},
		}},
		{"everything", fault.Plan{
			NetDropRate:   0.15,
			NetDelayRate:  0.2,
			NetExtraDelay: 60,
			Partitions:    []fault.Partition{{At: 200, Heal: 700}},
			ProcCrashes:   []fault.ProcCrash{{Proc: 2, At: 150, Rejoin: 550}},
		}},
	}

	for _, scn := range scenarios {
		var th float64
		var p99, dropped int64
		aborts, grace, crash, probes, retrans := 0, 0, 0, 0, 0
		for s := 0; s < seeds; s++ {
			wl := bankWorkload(3, 4, 14, 1, o.Seed+int64(s)*41)
			cfg := sim.DefaultConfig()
			plan := scn.plan
			plan.Seed = o.Seed + int64(s)*101
			c := dist.NewNet(wl.Nest, wl.Spec, dist.Params{
				Procs:  sim.Processors,
				Owner:  sim.OwnerFunc(sim.Processors),
				Delay:  5,
				Faults: fault.New(plan),
			})
			if o.Telemetry != nil {
				cfg.Telemetry = o.Telemetry
				c.AttachTelemetry(o.Telemetry)
			}
			res, err := sim.RunContext(o.ctx(), cfg, wl.Programs, c, wl.Spec, wl.Init)
			if err != nil {
				return nil, fmt.Errorf("E18 %s seed=%d: %w", scn.name, s, err)
			}
			if res.Stats.Committed != len(wl.Programs) {
				return nil, fmt.Errorf("E18 %s seed=%d: committed %d of %d (run did not drain)",
					scn.name, s, res.Stats.Committed, len(wl.Programs))
			}
			inv := wl.Check(res.Exec, res.Final)
			if !inv.ConservationOK || inv.AuditsInexact > 0 || inv.TraceValid != nil {
				return nil, fmt.Errorf("E18 %s seed=%d: invariants violated under chaos", scn.name, s)
			}
			ok, err := coherent.Correctable(res.Exec, wl.Nest, wl.Spec)
			if err != nil {
				return nil, err
			}
			if !ok {
				return nil, fmt.Errorf("E18 %s seed=%d: non-correctable execution admitted", scn.name, s)
			}
			// And by the independent checker, against the true level matrix.
			h, err := history.FromExecution(res.Exec, wl.Nest, wl.Spec)
			if err != nil {
				return nil, fmt.Errorf("E18 %s seed=%d: %w", scn.name, s, err)
			}
			if rep, err := history.Check(h); err != nil || !rep.Correctable {
				return nil, fmt.Errorf("E18 %s seed=%d: history.Check rejects the execution (err %v)", scn.name, s, err)
			}
			th += res.Throughput()
			if v := res.LatencyPercentile(99); v > p99 {
				p99 = v
			}
			aborts += res.Stats.Aborts
			grace += c.GraceAborts
			crash += c.CrashAborts
			probes += c.ProbeDeadlocks
			retrans += c.Retransmits
			dropped += c.NetStats().Dropped + c.NetStats().DroppedLink + c.NetStats().DroppedCrash
			if o.Telemetry != nil {
				c.FillTelemetry(o.Telemetry)
			}
		}
		th /= float64(seeds)
		t.Row(scn.name, th, p99, aborts/seeds, grace/seeds, crash/seeds,
			probes/seeds, retrans/seeds, dropped/int64(seeds))
	}
	return t, nil
}

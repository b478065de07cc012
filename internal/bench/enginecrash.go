package bench

import (
	"fmt"

	"mla/internal/coherent"
	"mla/internal/engine"
	"mla/internal/fault"
	"mla/internal/metrics"
	"mla/internal/sched"
)

// E17EngineCrash runs the banking workload on the concurrent engine with
// the deterministic fault-injection layer: crashes at configured WAL-append
// counts (each tearing records off the durable tail) crossed with transient
// step-error rates the engine retries through. Committed transfers survive
// every crash un-redone, the stitched execution stays value-consistent and
// Theorem-2 correctable, and the fault/redo columns price the injected
// adversity.
func E17EngineCrash(o Config) (*metrics.Table, error) {
	t := metrics.NewTable("E17: engine crash-recovery under fault injection (banking, Preventer)",
		"crashes", "err-rate", "rounds", "committed", "redone", "torn", "faults", "conserved", "correctable")
	sc := o.scale()
	crashSweep := [][]int64{nil, {6}, {6, 18}}
	rateSweep := []float64{0, 0.2}
	for _, crashes := range crashSweep {
		for _, rate := range rateSweep {
			rounds, committed, redone, torn, faults := 0, 0, 0, 0, 0
			conserved, correct := true, true
			for s := 0; s < sc; s++ {
				wl := bankWorkload(3, 4, 10, 1, o.Seed+int64(s)*71)
				plan := engine.CrashPlan{
					Cfg:  engine.Config{Seed: o.Seed + int64(s)},
					Spec: wl.Spec,
					Init: wl.Init,
					Faults: fault.Plan{
						Seed:          o.Seed + int64(s)*13,
						CrashAppends:  crashes,
						TearTail:      2,
						StepErrorRate: rate,
					},
					NewControl: func() sched.Control {
						return sched.NewPreventer(wl.Nest, wl.Spec)
					},
				}
				res, err := engine.RunWithCrashes(o.ctx(), plan, wl.Programs)
				if err != nil {
					return nil, fmt.Errorf("E17 crashes=%d rate=%.1f: %w", len(crashes), rate, err)
				}
				if res.Committed+res.GaveUp != len(wl.Programs) {
					return nil, fmt.Errorf("E17: %d of %d transactions unaccounted for",
						len(wl.Programs)-res.Committed-res.GaveUp, len(wl.Programs))
				}
				rounds += res.Rounds
				committed += res.Committed
				redone += res.RedoneTxns
				torn += res.TornTotal
				faults += res.FaultsInjected
				inv := wl.Check(res.Exec, res.Final)
				conserved = conserved && inv.ConservationOK && inv.AuditsInexact == 0 && inv.TraceValid == nil
				ok, err := coherent.Correctable(res.Exec, wl.Nest, wl.Spec)
				if err != nil {
					return nil, err
				}
				correct = correct && ok
			}
			if !conserved || !correct {
				return nil, fmt.Errorf("E17 crashes=%d rate=%.1f: invariants violated (conserved=%v correctable=%v)",
					len(crashes), rate, conserved, correct)
			}
			t.Row(len(crashes), rate, rounds, committed, redone, torn, faults, conserved, correct)
		}
	}
	return t, nil
}

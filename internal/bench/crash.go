package bench

import (
	"fmt"

	"mla/internal/coherent"
	"mla/internal/metrics"
	"mla/internal/sched"
	"mla/internal/sim"
)

// E14CrashRecovery runs the banking workload through injected crashes on
// the WAL-backed store: committed transfers survive each crash (never
// redone), in-flight ones restart, and the stitched execution of committed
// steps remains value-consistent and Theorem-2 correctable. The experiment
// sweeps the crash count; redone transactions measure the work lost to
// volatility.
func E14CrashRecovery(o Config) (*metrics.Table, error) {
	t := metrics.NewTable("E14: crash-recovery on the WAL-backed store (banking, Preventer)",
		"crashes", "rounds", "committed", "redone-txns", "conserved", "audits-exact", "correctable")
	sc := o.scale()
	for _, crashes := range [][]int64{nil, {150}, {100, 250}, {80, 160, 240, 320}} {
		rounds, committed, redone := 0, 0, 0
		conserved, exact, correct := true, true, true
		for s := 0; s < 2*sc; s++ {
			wl := bankWorkload(3, 4, 12, 1, o.Seed+int64(s)*53)
			plan := sim.CrashPlan{
				Cfg:     sim.DefaultConfig(),
				Spec:    wl.Spec,
				Init:    wl.Init,
				Crashes: crashes,
				NewControl: func() sched.Control {
					return sched.NewPreventer(wl.Nest, wl.Spec)
				},
			}
			res, err := sim.RunWithCrashes(plan, wl.Programs)
			if err != nil {
				return nil, fmt.Errorf("E14 crashes=%v: %w", crashes, err)
			}
			rounds += res.Rounds
			committed += res.Committed
			redone += res.RedoneTxns
			inv := wl.Check(res.Exec, res.Final)
			conserved = conserved && inv.ConservationOK && inv.TraceValid == nil
			exact = exact && inv.AuditsInexact == 0
			ok, err := coherent.Correctable(res.Exec, wl.Nest, wl.Spec)
			if err != nil {
				return nil, err
			}
			correct = correct && ok
		}
		if !conserved || !exact || !correct {
			return nil, fmt.Errorf("E14 crashes=%v: invariants violated (conserved=%v exact=%v correctable=%v)",
				crashes, conserved, exact, correct)
		}
		t.Row(len(crashes), rounds, committed, redone, conserved, exact, correct)
	}
	return t, nil
}

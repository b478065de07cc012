package engine

import (
	"context"
	"testing"
	"time"

	"mla/internal/bank"
	"mla/internal/history"
	"mla/internal/sim"
	"mla/internal/telemetry"
)

// contendedBank is a banking mix small enough for a quick run and contended
// enough that every control below rolls transactions back.
func contendedBank() bank.Params {
	p := bank.DefaultParams()
	p.Transfers = 14
	p.Families = 2
	p.BankAudits = 1
	p.CreditorAudits = 2
	return p
}

// TestAbortCountsMatchHistory pins the executors' rollback counts to the
// rollbacks they record. The engine's Counts.Aborts must equal the abort
// events of the history its Observer wrote; the simulator keeps no history
// of rollbacks, so its Stats.Aborts must equal the abort instants of its
// trace. No control counts rollbacks, so these counts are the only ones.
func TestAbortCountsMatchHistory(t *testing.T) {
	for _, name := range []string{"2pl", "prevent", "detect"} {
		t.Run(name, func(t *testing.T) {
			aborted := false
			for seed := int64(1); seed <= 8 && !aborted; seed++ {
				wl := bank.Generate(contendedBank())
				rec := history.NewRecorder(wl.Nest)
				cfg := Config{Seed: seed, StepDelay: 50 * time.Microsecond, Observer: rec}
				res, err := Run(context.Background(), cfg, wl.Programs, mkControl(name, wl.Nest, wl.Spec), wl.Spec, wl.Init)
				if err != nil {
					t.Fatal(err)
				}
				events := 0
				for _, ev := range rec.History().Events {
					if ev.Kind == history.KindAbort {
						events++
					}
				}
				if res.Aborts != events {
					t.Fatalf("seed %d: Counts.Aborts = %d, history records %d aborts", seed, res.Aborts, events)
				}
				aborted = res.Aborts > 0
			}
			if !aborted {
				t.Error("engine: no seed rolled a transaction back; the check above proved nothing")
			}

			wl := bank.Generate(contendedBank())
			tel := telemetry.New()
			cfg := sim.DefaultConfig()
			cfg.Telemetry = tel
			res, err := sim.Run(cfg, wl.Programs, mkControl(name, wl.Nest, wl.Spec), wl.Spec, wl.Init)
			if err != nil {
				t.Fatal(err)
			}
			instants := 0
			for _, sp := range tel.Trace.Spans() {
				if sp.Cat == "abort" {
					instants++
				}
			}
			if res.Stats.Aborts == 0 || res.Stats.Aborts != instants {
				t.Errorf("sim: Stats.Aborts = %d, trace records %d aborts (want equal and nonzero)", res.Stats.Aborts, instants)
			}
		})
	}
}

package bench

import "testing"

// TestExperimentsAcrossSeeds runs the soundness-asserting experiments at
// several seeds — the configuration that first exposed the Preventer's
// rule-(b) blind spot (benchmarks iterate seeds, plain tests did not).
func TestExperimentsAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed experiment sweep skipped in -short mode")
	}
	for _, id := range []string{"E13", "E14", "E16", "E10", "E12"} {
		for seed := int64(1); seed <= 6; seed++ {
			for _, ex := range All() {
				if ex.ID != id {
					continue
				}
				if _, err := ex.Run(Config{Scale: 1, Seed: seed}); err != nil {
					t.Errorf("%s seed %d: %v", id, seed, err)
				}
			}
		}
	}
}

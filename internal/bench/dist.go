package bench

import (
	"fmt"

	"mla/internal/coherent"
	"mla/internal/dist"
	"mla/internal/metrics"
	"mla/internal/sim"
)

// E13Distributed evaluates the distributed prevention controller of
// internal/dist: per-processor scheduling with breakpoint announcements
// that take Delay time units to propagate. The paper's Section 6 model is
// distributed ("entities of the database reside at nodes of a network, and
// the transactions migrate from entity to entity"), so a real prevention
// scheduler works from stale views of remote progress. Staleness is
// conservative — stale-waits rise with the delay — while soundness
// (Theorem 2 correctability) is asserted at every point; "delay=0" must
// match the centralized scheduler's admissions behaviorally.
func E13Distributed(o Config) (*metrics.Table, error) {
	t := metrics.NewTable("E13: distributed prevention vs announcement delay (banking)",
		"delay", "throughput", "p99-lat", "waits", "stale-waits", "aborts", "vs-central")
	sc := o.scale()
	seeds := 3 * sc

	// Centralized baseline.
	var centralTh float64
	for s := 0; s < seeds; s++ {
		wl := bankWorkload(3, 4, 14, 1, o.Seed+int64(s)*41)
		c := controlByName("prevent", wl.Nest, wl.Spec)
		res, err := runSim(o.ctx(), wl.Programs, c, wl.Spec, wl.Init)
		if err != nil {
			return nil, err
		}
		centralTh += res.Throughput()
	}
	centralTh /= float64(seeds)
	t.Row("central", centralTh, "-", "-", "-", "-", "-")

	for _, delay := range []int64{0, 5, 25, 100, 400} {
		var th float64
		var p99 int64
		waits, stale, aborts := 0, 0, 0
		for s := 0; s < seeds; s++ {
			wl := bankWorkload(3, 4, 14, 1, o.Seed+int64(s)*41)
			cfg := sim.DefaultConfig()
			c := dist.New(wl.Nest, wl.Spec, sim.Processors, sim.OwnerFunc(sim.Processors), delay)
			res, err := sim.Run(cfg, wl.Programs, c, wl.Spec, wl.Init)
			if err != nil {
				return nil, fmt.Errorf("E13 delay=%d: %w", delay, err)
			}
			inv := wl.Check(res.Exec, res.Final)
			if !inv.ConservationOK || inv.AuditsInexact > 0 || inv.TraceValid != nil {
				return nil, fmt.Errorf("E13 delay=%d: invariants violated", delay)
			}
			ok, err := coherent.Correctable(res.Exec, wl.Nest, wl.Spec)
			if err != nil {
				return nil, err
			}
			if !ok {
				return nil, fmt.Errorf("E13 delay=%d: non-correctable execution admitted", delay)
			}
			th += res.Throughput()
			if v := res.LatencyPercentile(99); v > p99 {
				p99 = v
			}
			waits += res.Control.Waits
			stale += c.StaleWaits
			aborts += res.Stats.Aborts
		}
		th /= float64(seeds)
		t.Row(delay, th, p99, waits/seeds, stale/seeds, aborts/seeds, metrics.Ratio(th, centralTh))
	}
	return t, nil
}

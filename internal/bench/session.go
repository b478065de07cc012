package bench

import (
	"fmt"

	"mla/internal/bank"
	"mla/internal/coherent"
	"mla/internal/metrics"
	"mla/internal/sim"
)

// E12Sessions measures the paper's core motivation (Section 1): "the
// logical unit should be as large as possible … the unit of atomicity
// should be as small as possible". Customer sessions perform L transfers
// each (total transfer count held constant); under serializability the
// whole session is one atomic unit, so 2PL's concurrency collapses as L
// grows, while the MLA controls — for which a session exposes a class-wide
// breakpoint after every transfer — are insensitive to L. Bank audits sit
// in the customers' level-2 class and so interleave at those breakpoints
// only, where no money is in transit: exactness is asserted at every L.
func E12Sessions(o Config) (*metrics.Table, error) {
	t := metrics.NewTable("E12: session length vs transfer throughput (8 concurrent sessions)",
		"session-len", "control", "xfers/1000u", "p99-lat", "aborts", "audits-exact", "vs-2pl")
	sc := o.scale()
	seeds := 3 * sc
	for _, length := range []int{1, 2, 4, 8} {
		base := 0.0
		for _, name := range []string{"2pl", "prevent", "detect", "prevent+pr", "detect+pr"} {
			var th float64
			var p99 int64
			aborts, exact, inexact := 0, 0, 0
			for s := 0; s < seeds; s++ {
				p := bank.DefaultSessionParams()
				p.SessionLength = length
				p.Sessions = 8
				p.Seed = o.Seed + int64(s)*29
				wl := bank.GenerateSessions(p)
				ctrlName := name
				partial := false
				if cut := len(name) - len("+pr"); cut > 0 && name[cut:] == "+pr" {
					ctrlName, partial = name[:cut], true
				}
				c := controlByName(ctrlName, wl.Nest, wl.Spec)
				cfg := simDefault()
				cfg.PartialRecovery = partial
				res, err := sim.Run(cfg, wl.Programs, c, wl.Spec, wl.Init)
				if err != nil {
					return nil, err
				}
				inv := wl.Check(res.Exec, res.Final)
				if !inv.ConservationOK || inv.TraceValid != nil {
					return nil, fmt.Errorf("E12: %s violated invariants at L=%d", name, length)
				}
				if inv.AuditsInexact > 0 {
					return nil, fmt.Errorf("E12: %s produced %d inexact audits at L=%d", name, inv.AuditsInexact, length)
				}
				ok, err := coherent.Correctable(res.Exec, wl.Nest, wl.Spec)
				if err != nil {
					return nil, err
				}
				if !ok {
					return nil, fmt.Errorf("E12: %s admitted a non-correctable execution at L=%d", name, length)
				}
				// Transfer-level throughput: sessions carry L transfers each.
				th += float64(p.Sessions*length) * 1000 / float64(res.Time)
				if v := res.LatencyPercentile(99); v > p99 {
					p99 = v
				}
				aborts += res.Stats.Aborts
				exact += inv.AuditsExact
				inexact += inv.AuditsInexact
			}
			th /= float64(seeds)
			if name == "2pl" {
				base = th
			}
			ratio := "-"
			if name != "2pl" && base > 0 {
				ratio = metrics.Ratio(th, base)
			}
			t.Row(length, name, th, p99, aborts/seeds,
				fmt.Sprintf("%d/%d", exact, exact+inexact), ratio)
		}
	}
	return t, nil
}

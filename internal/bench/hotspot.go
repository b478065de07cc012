package bench

import (
	"fmt"

	"mla/internal/bank"
	"mla/internal/coherent"
	"mla/internal/metrics"
	"mla/internal/model"
)

// E16HotSpot measures contention concentration: a fraction of transfers is
// redirected to deposit into one "fee account" every family pays into — the
// classic hot-spot pattern. Serializable controls serialize all hot
// transfers end-to-end; under the banking specification the hot account's
// writers still interleave at their phase boundaries (and family members
// everywhere), so the MLA controls degrade far more gently.
func E16HotSpot(o Config) (*metrics.Table, error) {
	t := metrics.NewTable("E16: hot-spot deposit account (banking)",
		"hot%", "control", "throughput", "p99-lat", "waits", "aborts", "vs-2pl")
	sc := o.scale()
	seeds := 3 * sc
	for _, hotPct := range []int{0, 25, 50, 100} {
		base := 0.0
		for _, name := range []string{"2pl", "prevent", "detect"} {
			var th float64
			var p99 int64
			waits, aborts := 0, 0
			for s := 0; s < seeds; s++ {
				wl := bankWorkload(3, 4, 14, 0, o.Seed+int64(s)*19)
				hotify(wl, hotPct)
				c := controlByName(name, wl.Nest, wl.Spec)
				res, err := runSim(o.ctx(), wl.Programs, c, wl.Spec, wl.Init)
				if err != nil {
					return nil, err
				}
				// Conservation including the fee account (outside the
				// generator's world, so checked here).
				var total model.Value
				for _, x := range wl.World.Accounts() {
					total += res.Final[x]
				}
				total += res.Final["acct/fee"]
				if total != wl.World.Total() {
					return nil, fmt.Errorf("E16: %s lost money at hot=%d", name, hotPct)
				}
				if err := res.Exec.Validate(wl.Init); err != nil {
					return nil, fmt.Errorf("E16: %s trace invalid at hot=%d: %w", name, hotPct, err)
				}
				ok, err := coherent.Correctable(res.Exec, wl.Nest, wl.Spec)
				if err != nil {
					return nil, err
				}
				if !ok {
					return nil, fmt.Errorf("E16: %s non-correctable at hot=%d", name, hotPct)
				}
				th += res.Throughput()
				if v := res.LatencyPercentile(99); v > p99 {
					p99 = v
				}
				waits += res.Control.Waits
				aborts += res.Stats.Aborts
			}
			th /= float64(seeds)
			if name == "2pl" {
				base = th
			}
			ratio := "-"
			if name != "2pl" && base > 0 {
				ratio = metrics.Ratio(th, base)
			}
			t.Row(hotPct, name, th, p99, waits/seeds, aborts/seeds, ratio)
		}
	}
	return t, nil
}

// hotify redirects the second deposit target of hotPct% of transfers to a
// single shared fee account.
func hotify(wl *bank.Workload, hotPct int) {
	const fee = model.EntityID("acct/fee")
	wl.Init[fee] = 0
	i := 0
	for _, p := range wl.Programs {
		tr, ok := p.(*bank.Transfer)
		if !ok {
			continue
		}
		if i*100 < hotPct*countTransfers(wl) {
			tr.Targets[1] = fee
		}
		i++
	}
}

func countTransfers(wl *bank.Workload) int {
	n := 0
	for _, p := range wl.Programs {
		if _, ok := p.(*bank.Transfer); ok {
			n++
		}
	}
	return n
}

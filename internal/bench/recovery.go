package bench

import (
	"mla/internal/bank"
	"mla/internal/metrics"
	"mla/internal/sim"
)

// E11Recovery quantifies two of the paper's Section 1/6 observations about
// units of recovery and commitment:
//
//   - Commit chaining: under multilevel atomicity a transaction may not be
//     able to commit alone — value dependencies between finished
//     transactions can chain (even cycle), forcing group commits. The
//     serializable baselines always commit groups of exactly 1.
//   - Unit of recovery: the "+pr" rows enable suffix-only rollback to the
//     victim's last class-wide breakpoint (the paper's smaller unit of
//     recovery: "one would probably not want to roll back very long
//     transactions"); the undone-steps column shows the redone work saved.
func E11Recovery(o Config) (*metrics.Table, error) {
	t := metrics.NewTable("E11: commit chaining and recovery-unit accounting (sessioned banking, L=4)",
		"control", "commits", "group=1", "group>1", "max-group", "aborts", "partial", "undone-steps")
	sc := o.scale()
	for _, name := range []string{"2pl", "tso", "prevent", "detect", "prevent+pr", "detect+pr"} {
		ctrlName := name
		partial := false
		if cut := len(name) - len("+pr"); cut > 0 && name[cut:] == "+pr" {
			ctrlName, partial = name[:cut], true
		}
		commits, gOne, gMore, gMax, aborts, partials := 0, 0, 0, 0, 0, 0
		var undone int64
		for s := 0; s < 4*sc; s++ {
			p := bank.DefaultSessionParams()
			p.Sessions = 6
			p.SessionLength = 4
			p.Seed = o.Seed + int64(s)*31
			wl := bank.GenerateSessions(p)
			c := controlByName(ctrlName, wl.Nest, wl.Spec)
			cfg := simDefault()
			cfg.PartialRecovery = partial
			res, err := sim.Run(cfg, wl.Programs, c, wl.Spec, wl.Init)
			if err != nil {
				return nil, err
			}
			commits += res.Stats.Committed
			for _, g := range res.CommitGroups {
				if g == 1 {
					gOne++
				} else {
					gMore++
				}
				if g > gMax {
					gMax = g
				}
			}
			aborts += res.Stats.Aborts
			partials += res.Stats.PartialRollbacks
			undone += res.Stats.StepsUndone
		}
		t.Row(name, commits, gOne, gMore, gMax, aborts, partials, undone)
	}
	return t, nil
}

package bench

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"

	"mla/internal/metrics"
	"mla/internal/serve"
)

// E22CrashSoak is the crash-restart durability soak as an experiment: build
// the real mlaserve binary, run it over a persistent data directory with
// transient disk faults injected in its WAL, SIGKILL it mid-load repeatedly,
// and audit every boot — each transaction ever acknowledged with 200 must be
// re-verifiable after every restart, recovery's replay must stay bounded by
// the last checkpoint, and the history spool concatenated across all boots
// must pass the black-box MLA checker. This is the claim the other tables
// assume: the WAL the scheduler commits into actually survives the process.
func E22CrashSoak(o Config) (*metrics.Table, error) {
	sc := o.scale()
	dir, err := os.MkdirTemp("", "mla-e22-")
	if err != nil {
		return nil, fmt.Errorf("E22: %w", err)
	}
	defer os.RemoveAll(dir)
	bin := filepath.Join(dir, "mlaserve")
	build := exec.Command("go", "build", "-o", bin, "mla/cmd/mlaserve")
	if out, err := build.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("E22: building mlaserve: %v: %s", err, out)
	}

	rep, err := serve.Soak(o.ctx(), serve.SoakOptions{
		Bin:                bin,
		Dir:                filepath.Join(dir, "data"),
		Rounds:             5,
		TxnsPerRound:       200 * sc,
		CheckpointEvery:    64,
		DiskWriteErrRate:   0.02,
		DiskShortWriteRate: 0.02,
		DiskSyncErrRate:    0.01,
		Seed:               o.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("E22: %w", err)
	}

	t := metrics.NewTable("E22: crash-restart soak (SIGKILL + disk faults, real process)",
		"boot", "kind", "epoch", "replayed", "torn B", "reverified", "lost", "acked", "down")
	for i, r := range rep.Rounds {
		kind := "kill -9"
		if r.Graceful {
			kind = "graceful"
		}
		t.Row(i+1, kind, r.Epoch, r.SinceCheckpoint, r.TornBytes, r.Reverified, r.Lost, r.Acked, r.Down)
	}
	hist := "-"
	if rep.History != nil {
		hist = rep.History.Summary()
	}
	verdict := "PASS"
	if !rep.OK() {
		verdict = fmt.Sprintf("FAIL: %v", rep.Problems)
	}
	t.Row("total", fmt.Sprintf("%d ckpts", rep.Checkpoints), "", "", "",
		rep.TotalAcked, len(rep.LostAcks), hist, verdict)
	if !rep.OK() {
		return nil, fmt.Errorf("E22: %v", rep.Problems)
	}
	return t, nil
}

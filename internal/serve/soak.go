package serve

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"

	"mla/internal/history"
	"mla/internal/metrics"
	"mla/internal/serve/loadgen"
)

// The soak's fixed load shape and boot bound: soakSessions client sessions
// each offer soakRate arrivals/second, and soakStartTimeout bounds each boot
// (spawn → listening → ready) and each graceful drain.
const (
	soakSessions     = 12
	soakRate         = 120.0
	soakStartTimeout = 30 * time.Second
)

// SoakOptions shapes one crash-restart soak (see Soak). The soak runs a
// REAL mlaserve process — durability claims about SIGKILL are only worth
// anything against a separate process whose death this one cannot soften.
type SoakOptions struct {
	// Bin is the mlaserve binary to spawn. Required.
	Bin string
	// Dir holds the data directory and history spool across restarts.
	// Required; reused (not wiped) so the soak exercises real recovery.
	Dir string

	// Rounds is the number of SIGKILL rounds (the final graceful round and
	// the post-seal verification boot come on top). Default 5.
	Rounds int
	// TxnsPerRound is each round's open-loop load (default 300), offered
	// by soakSessions sessions at soakRate arrivals/sec each.
	TxnsPerRound int
	// KillAfter is how long into each round's load the SIGKILL lands.
	// Default: half the expected load duration — late enough to bank
	// acks, early enough that the kill interrupts live traffic.
	KillAfter time.Duration

	// CheckpointEvery is the child's compacting-checkpoint threshold in
	// records (default 64). The soak's bounded-replay assertions scale
	// from it.
	CheckpointEvery int

	// Transient disk-fault rates injected in the child (its WAL retries
	// them; they must not cost durability). Zero disables.
	DiskWriteErrRate   float64
	DiskShortWriteRate float64
	DiskSyncErrRate    float64

	// Seed drives the load generator and the child's fault injection.
	Seed int64
	// Out, when non-nil, receives progress lines (child output included).
	Out io.Writer
}

// SoakRound records one boot of the child: what recovery reported, what the
// lost-ack audit found, and what the round's load did.
type SoakRound struct {
	Epoch           int64 `json:"epoch"`
	Records         int   `json:"records"`
	SinceCheckpoint int   `json:"since_checkpoint"`
	TornBytes       int64 `json:"torn_bytes"`
	// Reverified is how many previously acked transactions were re-checked
	// against this boot via GET /v1/txns/{id}; Lost is how many the server
	// denied (MUST be zero — each one is an ack the crash destroyed).
	Reverified int `json:"reverified"`
	Lost       int `json:"lost"`
	Offered    int `json:"offered"`
	Acked      int `json:"acked"`
	Down       int `json:"down"`
	// Graceful marks the SIGTERM round (and the verification boot).
	Graceful bool `json:"graceful"`
}

// SoakReport is the soak's verdict.
type SoakReport struct {
	Rounds     []SoakRound
	TotalAcked int
	// LostAcks lists every acked-then-denied transaction across all
	// boots. Durability means this is empty.
	LostAcks []string
	// Checkpoints is the child-reported compacting-checkpoint count
	// (maximum observed over /metrics samples).
	Checkpoints int64
	// History is the black-box checker's report over the merged spool.
	History *history.Report
	// SpoolPath is where the concatenated history spool lives (CI uploads
	// it as the run's audit artifact).
	SpoolPath string
	Problems  []string
}

// OK reports whether every assertion held.
func (r *SoakReport) OK() bool { return len(r.Problems) == 0 }

// Summary renders the report as a table.
func (r *SoakReport) Summary() *metrics.Table {
	t := metrics.NewTable("mlaserve crash-restart soak", "metric", "value")
	t.Row("boots", len(r.Rounds))
	t.Row("acked total", r.TotalAcked)
	t.Row("lost acks", len(r.LostAcks))
	t.Row("checkpoints", r.Checkpoints)
	if n := len(r.Rounds); n > 0 {
		last := r.Rounds[n-1]
		t.Row("final epoch", last.Epoch)
		t.Row("final replay (records past checkpoint)", last.SinceCheckpoint)
	}
	if r.History != nil {
		t.Row("history", r.History.Summary())
	}
	verdict := "PASS"
	if !r.OK() {
		verdict = fmt.Sprintf("FAIL (%d problems)", len(r.Problems))
	}
	t.Row("verdict", verdict)
	return t
}

// soakChild is one running mlaserve process plus the handles the soak needs.
type soakChild struct {
	cmd  *exec.Cmd
	base string // http://addr
	done chan error
}

// stop SIGTERMs the child and waits out its drain, SIGKILLing it if the
// drain takes longer than soakStartTimeout.
func (c *soakChild) stop() error {
	c.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-c.done:
		return err
	case <-time.After(soakStartTimeout):
		c.cmd.Process.Kill()
		<-c.done
		return fmt.Errorf("timed out after %v", soakStartTimeout)
	}
}

var listenRE = regexp.MustCompile(`listening on ([0-9.]+:[0-9]+)`)

// Soak is the crash-restart durability soak: it boots a real mlaserve
// process over a persistent data directory, offers open-loop load, SIGKILLs
// the process mid-load, restarts it, and audits — on every boot — that each
// transaction EVER acknowledged with 200 is still durable, that recovery's
// replay stayed bounded by the last checkpoint, and that the history spool
// concatenated across all boots passes the black-box MLA checker. The final
// round drains gracefully (SIGTERM seals the log with a checkpoint) and one
// more boot verifies the seal made recovery nearly free.
func Soak(ctx context.Context, o SoakOptions) (*SoakReport, error) {
	if o.Bin == "" || o.Dir == "" {
		return nil, fmt.Errorf("soak: need Bin and Dir")
	}
	if o.Rounds <= 0 {
		o.Rounds = 5
	}
	if o.TxnsPerRound <= 0 {
		o.TxnsPerRound = 300
	}
	if o.KillAfter <= 0 {
		loadSecs := float64(o.TxnsPerRound) / soakSessions / soakRate
		o.KillAfter = time.Duration(loadSecs / 2 * float64(time.Second))
		if o.KillAfter < 20*time.Millisecond {
			o.KillAfter = 20 * time.Millisecond
		}
	}
	if o.CheckpointEvery <= 0 {
		o.CheckpointEvery = 64
	}
	logf := func(format string, args ...any) {
		if o.Out != nil {
			fmt.Fprintf(o.Out, "soak: "+format+"\n", args...)
		}
	}
	if err := os.MkdirAll(o.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("soak: %w", err)
	}
	rep := &SoakReport{SpoolPath: filepath.Join(o.Dir, "history.spool")}
	problem := func(format string, args ...any) {
		rep.Problems = append(rep.Problems, fmt.Sprintf(format, args...))
	}

	var acked []string // every 200-acked txn across all boots, audit set
	client := &http.Client{Timeout: 10 * time.Second}

	// boot starts the child, waits for readiness, reads recovery stats,
	// and runs the lost-ack audit over everything acked so far.
	boot := func(round int, graceful bool) (*soakChild, *SoakRound, error) {
		c, err := o.startChild(round)
		if err != nil {
			return nil, nil, err
		}
		if err := awaitReady(ctx, client, c, soakStartTimeout); err != nil {
			c.cmd.Process.Kill()
			<-c.done
			return nil, nil, err
		}
		m, err := fetchMetrics(ctx, client, c.base)
		if err != nil {
			c.cmd.Process.Kill()
			<-c.done
			return nil, nil, err
		}
		r := &SoakRound{
			Graceful:        graceful,
			Epoch:           int64(m["serve_recovery_epoch"]),
			Records:         int(m["serve_recovery_records"]),
			SinceCheckpoint: int(m["serve_recovery_since_checkpoint"]),
			TornBytes:       int64(m["serve_recovery_torn_bytes"]),
		}
		lost, err := loadgen.Reverify(ctx, client, c.base, acked)
		if err != nil {
			problem("boot %d: reverify: %v", round, err)
		}
		r.Reverified = len(acked)
		r.Lost = len(lost)
		rep.LostAcks = append(rep.LostAcks, lost...)
		logf("boot %d: epoch %d, %d records (%d past checkpoint, %d torn or stale bytes), reverified %d acks, %d lost",
			round, r.Epoch, r.Records, r.SinceCheckpoint, r.TornBytes, r.Reverified, r.Lost)
		return c, r, nil
	}

	load := func(c *soakChild, r *SoakRound, round int) error {
		lrep, err := loadgen.Run(ctx, loadgen.Options{
			BaseURL:   c.base,
			Sessions:  soakSessions,
			Txns:      o.TxnsPerRound,
			Rate:      soakRate,
			CreditPct: 8,
			AuditPct:  2,
			Seed:      o.Seed + int64(round)*1009,
			Client:    client,
		})
		if err != nil {
			return err
		}
		r.Offered, r.Acked, r.Down = lrep.Offered, lrep.Acked, lrep.Down
		acked = append(acked, lrep.AckedIDs...)
		rep.TotalAcked += lrep.Acked
		return nil
	}

	// SIGKILL rounds: boot, audit, load with a mid-flight kill.
	for round := 1; round <= o.Rounds; round++ {
		if err := ctx.Err(); err != nil {
			return rep, err
		}
		c, r, err := boot(round, false)
		if err != nil {
			return rep, fmt.Errorf("soak: boot %d: %w", round, err)
		}
		// Replay past the checkpoint can exceed CheckpointEvery — the
		// auto-checkpoint needs a quiescent flush — but it must stay in
		// its neighborhood, not grow with the total history.
		if bound := 8 * o.CheckpointEvery; round > 1 && r.SinceCheckpoint > bound {
			problem("boot %d: recovery replayed %d records past the checkpoint (bound %d) — compaction is not bounding recovery",
				round, r.SinceCheckpoint, bound)
		}
		// The load runs concurrently; the kill lands from here, KillAfter
		// into it, with a checkpoint-progress sample taken just before the
		// lights go out.
		loadDone := make(chan error, 1)
		go func() { loadDone <- load(c, r, round) }()
		select {
		case <-time.After(o.KillAfter):
			logf("round %d: SIGKILL", round)
		case err := <-loadDone:
			// The load finished before the kill window — still kill (the
			// restart is the thing under test), unless it failed outright.
			if err != nil {
				c.cmd.Process.Kill()
				<-c.done
				return rep, fmt.Errorf("soak: round %d load: %w", round, err)
			}
			loadDone <- nil
		}
		if m, err := fetchMetrics(ctx, client, c.base); err == nil {
			rep.Checkpoints = max(rep.Checkpoints, int64(m["serve_wal_checkpoints"]))
		}
		c.cmd.Process.Kill()
		if err := <-loadDone; err != nil {
			<-c.done
			return rep, fmt.Errorf("soak: round %d load: %w", round, err)
		}
		<-c.done
		rep.Rounds = append(rep.Rounds, *r)
		logf("round %d: offered %d, acked %d, down %d", round, r.Offered, r.Acked, r.Down)
		if r.Acked == 0 {
			problem("round %d acked nothing — the kill beat the load; raise KillAfter", round)
		}
	}

	// Graceful round: same audit, quiet load, SIGTERM drain. The drain
	// flushes the pipeline and seals the log with a checkpoint.
	c, r, err := boot(o.Rounds+1, true)
	if err != nil {
		return rep, fmt.Errorf("soak: graceful boot: %w", err)
	}
	if err := load(c, r, o.Rounds+1); err != nil {
		c.cmd.Process.Kill()
		<-c.done
		return rep, fmt.Errorf("soak: graceful load: %w", err)
	}
	if m, err := fetchMetrics(ctx, client, c.base); err == nil {
		rep.Checkpoints = max(rep.Checkpoints, int64(m["serve_wal_checkpoints"]))
	}
	if err := c.stop(); err != nil {
		problem("graceful drain: %v", err)
	}
	rep.Rounds = append(rep.Rounds, *r)

	// Verification boot: a sealed log must make recovery nearly free — the
	// state is folded from the checkpoint archive, NOT replayed from history.
	c, r, err = boot(o.Rounds+2, true)
	if err != nil {
		return rep, fmt.Errorf("soak: verification boot: %w", err)
	}
	if r.SinceCheckpoint > 2 {
		problem("after a sealed shutdown, recovery replayed %d records past the checkpoint (want <= 2)", r.SinceCheckpoint)
	}
	c.stop()
	rep.Rounds = append(rep.Rounds, *r)

	// Verdicts that span the whole soak.
	if len(rep.LostAcks) > 0 {
		problem("%d acked transactions were lost across restarts: %v", len(rep.LostAcks), sample(rep.LostAcks, 8))
	}
	if rep.TotalAcked == 0 {
		problem("no transaction was ever acknowledged — the soak never got going")
	}
	if rep.Checkpoints == 0 {
		problem("no compacting checkpoint was ever observed — the log grew unbounded")
	}

	rep.History = auditSpool(rep.SpoolPath, acked, problem)
	logf("done: %d boots, %d acked, %d lost, %d checkpoints", len(rep.Rounds), rep.TotalAcked, len(rep.LostAcks), rep.Checkpoints)
	return rep, nil
}

// startChild spawns one mlaserve process over the soak's data directory and
// waits for its "listening on" line. Port 0 every boot: the address is
// re-parsed, so kill-induced TIME_WAIT states never collide.
func (o SoakOptions) startChild(round int) (*soakChild, error) {
	args := []string{
		"-addr", "127.0.0.1:0",
		"-data-dir", filepath.Join(o.Dir, "wal"),
		"-spool", filepath.Join(o.Dir, "history.spool"),
		"-checkpoint-every", strconv.Itoa(o.CheckpointEvery),
		"-seed", strconv.FormatInt(o.Seed+int64(round), 10),
	}
	if o.DiskWriteErrRate > 0 {
		args = append(args, "-disk-write-err", fmt.Sprint(o.DiskWriteErrRate))
	}
	if o.DiskShortWriteRate > 0 {
		args = append(args, "-disk-short-write", fmt.Sprint(o.DiskShortWriteRate))
	}
	if o.DiskSyncErrRate > 0 {
		args = append(args, "-disk-sync-err", fmt.Sprint(o.DiskSyncErrRate))
	}
	if o.DiskWriteErrRate > 0 || o.DiskShortWriteRate > 0 || o.DiskSyncErrRate > 0 {
		args = append(args, "-disk-fault-seed", strconv.FormatInt(o.Seed*31+int64(round), 10))
	}
	cmd := exec.Command(o.Bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stderr = cmd.Stdout // interleave; both feed the scanner below
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if m := listenRE.FindStringSubmatch(line); m != nil {
				select {
				case addrCh <- m[1]:
				default:
				}
			}
			if o.Out != nil {
				fmt.Fprintf(o.Out, "  [child %d] %s\n", cmd.Process.Pid, line)
			}
		}
		close(addrCh)
	}()
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case addr, ok := <-addrCh:
		if !ok {
			<-done
			return nil, fmt.Errorf("child exited before listening")
		}
		return &soakChild{cmd: cmd, base: "http://" + addr, done: done}, nil
	case <-time.After(soakStartTimeout):
		cmd.Process.Kill()
		<-done
		return nil, fmt.Errorf("child did not report listening within %v", soakStartTimeout)
	}
}

// awaitReady polls /readyz until the recovery gate lifts. Listening comes
// BEFORE recovery (that is the point of the gate), so this is where the
// replay time is actually spent.
func awaitReady(ctx context.Context, client *http.Client, c *soakChild, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		resp, err := client.Get(c.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case err := <-c.done:
			return fmt.Errorf("child exited while recovering: %v", err)
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("child not ready within %v", timeout)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// fetchMetrics reads the child's /metrics into a name -> value map.
func fetchMetrics(ctx context.Context, client *http.Client, base string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	m := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		v, err := strconv.ParseFloat(val, 64)
		if !ok || err != nil {
			return nil, fmt.Errorf("metrics: malformed line %q", sc.Text())
		}
		m[name] = v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	return m, nil
}

func sample(s []string, n int) []string {
	if len(s) <= n {
		return s
	}
	return s[:n]
}

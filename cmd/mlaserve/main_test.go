package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"mla/internal/history"
	"mla/internal/model"
	"mla/internal/serve"
)

// TestStalledHeaderIsClosed: a connection that stops mid-header is closed by
// the front once serve.ReadHeaderTimeout passes — it does not pin a goroutine
// and a descriptor forever — and /healthz keeps answering on other
// connections while it is stalled.
func TestStalledHeaderIsClosed(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	front := serve.Listen(ln)
	srv, err := serve.New(serve.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	front.Mount(srv)
	defer func() {
		front.Drain(context.Background())
		front.Close(context.Background())
	}()

	stalled, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	start := time.Now()
	if _, err := stalled.Write([]byte("GET /healthz HTTP/1.1\r\nHost: mla\r\nX-Never-")); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get("http://" + ln.Addr().String() + "/healthz")
	if err != nil {
		t.Fatalf("/healthz while a header is stalled: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz while a header is stalled: %d %s", resp.StatusCode, body)
	}

	// The server hangs up: whatever it writes first, the stream ends.
	stalled.SetReadDeadline(start.Add(serve.ReadHeaderTimeout + 5*time.Second))
	if _, err := io.Copy(io.Discard, stalled); err != nil {
		t.Fatalf("stalled connection still open %v after the header began: %v", time.Since(start).Round(time.Millisecond), err)
	}
	if took := time.Since(start); took < serve.ReadHeaderTimeout-time.Second {
		t.Fatalf("connection closed after %v, before the %v header timeout", took, serve.ReadHeaderTimeout)
	}
}

// TestUsageErrorsLeaveNothingBehind: a flag value outside its documented
// range exits 2 before anything listens, forks or writes — only a
// diagnostic on stderr, no spool, WAL, soak directory or trace file —
// instead of running with a value the command was not given.
func TestUsageErrorsLeaveNothingBehind(t *testing.T) {
	for _, flags := range []string{
		"-selftest -sessions 0",
		"-selftest -rate 0",
		"-selftest -rate -3",
		"-selftest -txns -5",
		"-selftest -audit-pct 80 -credit-pct 80",
		"-selftest -audit-pct -10",
		"-selftest -disconnect-pct 150",
		"-selftest -p99-slo -1s",
		"-data-dir DIR/wal -checkpoint-every -5",
		"-data-dir DIR/wal -segment-bytes -1",
		"-shards -4",
		"-max-inflight -2",
		"-disk-sync-err 1.5",
		"-soak -soak-rounds 0",
		"-soak -soak-txns -1",
		"-soak -checkpoint-every 0",
	} {
		dir := t.TempDir()
		args := strings.Fields(strings.ReplaceAll(flags, "DIR", dir))
		args = append(args, "-addr", "127.0.0.1:0", "-spool", filepath.Join(dir, "h.spool"),
			"-soak-dir", filepath.Join(dir, "soak"),
			"-trace-out", filepath.Join(dir, "t.json"))
		var out, errb bytes.Buffer
		status := run(args, &out, &errb)
		if left, _ := os.ReadDir(dir); status != 2 || out.Len() != 0 || !strings.HasPrefix(errb.String(), "mlaserve: ") || len(left) != 0 {
			t.Errorf("%s: exit %d, stdout %q, stderr %q, %d files left; want exit 2 and only a diagnostic", flags, status, out.String(), errb.String(), len(left))
		}
	}
}

// TestSelfTestDrainsOnSIGTERM runs the acceptance loop at smoke scale — 20
// sessions offering 400 transactions at 40/s each with 5 % disconnects —
// through runSelfTest, so the mid-run drain 250 ms in arrives as a real
// SIGTERM against this process. serve.TestSelfTestSmoke runs the same load
// with a direct drain; the verdict rests on the audited history spool either
// way.
func TestSelfTestDrainsOnSIGTERM(t *testing.T) {
	if testing.Short() {
		t.Skip("selftest loop in -short mode")
	}
	cfg := serve.DefaultConfig()
	cfg.SpoolPath = filepath.Join(t.TempDir(), "history.spool")
	var out, errb bytes.Buffer
	status := runSelfTest(serve.SelfTestOptions{
		Config:        cfg,
		Sessions:      20,
		Txns:          400,
		Rate:          40,
		AuditPct:      2,
		CreditPct:     8,
		DisconnectPct: 5,
		DrainAfter:    250 * time.Millisecond,
		P99SLO:        5 * time.Second,
	}, &out, &errb)
	if status != 0 {
		t.Fatalf("exit %d, stderr:\n%s", status, errb.String())
	}
	if !strings.Contains(errb.String(), "SIGTERM received") {
		t.Errorf("the drain did not come through the signal path, stderr:\n%s", errb.String())
	}
}

// TestServeModeDrainsOnSIGTERM runs serve mode itself — listen, announce,
// recover, mount — on a free port with a spool, commits a few transfers over
// HTTP once /readyz answers, and raises a real SIGTERM against this process.
// The drain must exit 0 and report the commits, and the spool must be a
// history the checker accepts with every acked transaction committed.
func TestServeModeDrainsOnSIGTERM(t *testing.T) {
	cfg := serve.DefaultConfig()
	cfg.SpoolPath = filepath.Join(t.TempDir(), "history.spool")
	pr, pw := io.Pipe()
	lines := make(chan string, 16)
	go func() {
		sc := bufio.NewScanner(pr)
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
	var errb bytes.Buffer
	status := make(chan int, 1)
	go func() {
		status <- runServe(cfg, "127.0.0.1:0", 30*time.Second, pw, &errb)
		pw.Close()
	}()

	m := regexp.MustCompile(`listening on (\S+)`).FindStringSubmatch(<-lines)
	if m == nil {
		t.Fatalf("no listening line; stderr:\n%s", errb.String())
	}
	base := "http://" + m[1]
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if resp, err := http.Get(base + "/readyz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("/readyz never answered 200")
		}
	}
	post := func(path, body string, into any) {
		t.Helper()
		resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s: status %d", path, resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatal(err)
		}
	}
	var sess struct{ ID string }
	post("/v1/sessions", `{}`, &sess)
	var acked []model.TxnID
	for i := 0; i < 5; i++ {
		var res struct{ Txn string }
		post("/v1/txns", `{"session":"`+sess.ID+`","kind":"transfer"}`, &res)
		acked = append(acked, model.TxnID(res.Txn))
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-status:
		if code != 0 {
			t.Fatalf("exit %d, stderr:\n%s", code, errb.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("serve mode did not exit after SIGTERM")
	}
	var out strings.Builder
	for line := range lines {
		out.WriteString(line + "\n")
	}
	if want := fmt.Sprintf("drained clean — %d committed", len(acked)); !strings.Contains(out.String(), want) {
		t.Errorf("stdout lacks %q:\n%s", want, out.String())
	}

	h, err := history.ReadSpoolFile(cfg.SpoolPath)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := history.Check(h)
	if err != nil || !rep.Correctable {
		t.Fatalf("spool rejected: %v %+v", err, rep)
	}
	steps, _, _ := h.Committed()
	committed := make(map[model.TxnID]bool)
	for _, st := range steps {
		committed[st.Txn] = true
	}
	for _, id := range acked {
		if !committed[id] {
			t.Errorf("acked %s is not committed in the spool", id)
		}
	}
}

package main

import (
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mla/internal/serve"
)

// TestStalledHeaderIsClosed: a connection that stops mid-header is closed by
// the server once readHeaderTimeout passes — it does not pin a goroutine and
// a descriptor forever — and /healthz keeps answering on other connections
// while it is stalled.
func TestStalledHeaderIsClosed(t *testing.T) {
	srv, err := serve.New(serve.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	gate := &serve.Gate{}
	gate.Set(srv.Handler())
	hs := newHTTPServer(gate)
	go hs.Serve(ln)
	defer hs.Close()

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
	stalled.SetReadDeadline(start.Add(readHeaderTimeout + 5*time.Second))
	if _, err := io.Copy(io.Discard, stalled); err != nil {
		t.Fatalf("stalled connection still open %v after the header began: %v", time.Since(start).Round(time.Millisecond), err)
	}
	if took := time.Since(start); took < readHeaderTimeout-time.Second {
		t.Fatalf("connection closed after %v, before the %v header timeout", took, readHeaderTimeout)
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

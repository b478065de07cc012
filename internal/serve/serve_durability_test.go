package serve

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mla/internal/fault"
	"mla/internal/history"
	"mla/internal/model"
	"mla/internal/wal"
)

// TestServeUnknownControlMountsNothing: a New refused for its control must
// not have mounted the data directory, so the first boot that succeeds there
// is epoch 1. The unsound "none" is refused like any unknown name: a served
// control must never ack a commit the history checker may reject.
func TestServeUnknownControlMountsNothing(t *testing.T) {
	cfg := testConfig()
	cfg.DataDir = filepath.Join(t.TempDir(), "wal")
	for _, name := range []string{"bogus", "none"} {
		cfg.Control = name
		if srv, err := New(cfg); err == nil {
			srv.Shutdown(context.Background())
			t.Fatalf("New accepted control %q", name)
		}
	}
	cfg.Control = ""
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	if e := srv.RecoveryInfo().Epoch; e != 1 {
		t.Fatalf("first successful boot is epoch %d, want 1", e)
	}
}

// TestServeDurabilityRoundTrip: the tentpole contract end to end — a server
// with a data directory acks transactions, shuts down, and a second server
// opened over the same directory recovers every ack, answers the durability
// lookup for each, and mints session IDs in a fresh epoch. The spool merges
// both boots into one history that passes the black-box checker.
func TestServeDurabilityRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	cfg.DataDir = filepath.Join(dir, "wal")
	cfg.SpoolPath = filepath.Join(dir, "history.spool")
	cfg.CheckpointEvery = 8

	bootAcks := func(n int) []model.TxnID {
		srv, ts := startServer(t, cfg)
		if e := srv.RecoveryInfo().Epoch; e < 1 {
			t.Fatalf("epoch %d, want >= 1", e)
		}
		sess := openTestSession(t, ts.URL)
		var acked []model.TxnID
		for i := 0; i < n; i++ {
			resp, body := postJSON(t, ts.URL+"/v1/txns", txnRequest{Session: sess, Kind: "transfer"})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("txn %d: status %d: %s", i, resp.StatusCode, body)
			}
			var tr txnResponse
			if err := json.Unmarshal(body, &tr); err != nil {
				t.Fatal(err)
			}
			acked = append(acked, model.TxnID(tr.Txn))
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Fatalf("shutdown: %v", err)
		}
		ts.Close()
		return acked
	}

	first := bootAcks(12)

	// Second boot over the same directory: a fresh epoch, all prior acks
	// durable, and a bounded replay (shutdown sealed with a checkpoint, so
	// recovery redoes almost nothing).
	srv2, ts2 := startServer(t, cfg)
	info := srv2.RecoveryInfo()
	if info.Epoch < 2 {
		t.Fatalf("second boot epoch %d, want >= 2", info.Epoch)
	}
	if info.SinceCheckpoint > 2 {
		t.Errorf("replayed %d records past the checkpoint; sealed shutdown should bound this to <= 2", info.SinceCheckpoint)
	}
	for _, id := range first {
		if !srv2.Durable(id) {
			t.Errorf("%s acked in boot 1 but not durable in boot 2", id)
		}
		resp, _ := http.Get(ts2.URL + "/v1/txns/" + string(id))
		if resp.StatusCode != http.StatusOK {
			t.Errorf("lookup %s: status %d, want 200", id, resp.StatusCode)
		}
	}
	if resp, _ := http.Get(ts2.URL + "/v1/txns/never-happened"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("lookup of unknown txn: status %d, want 404", resp.StatusCode)
	}

	// Epoch-qualified session IDs: no boot can reuse another's txn IDs.
	sess := openTestSession(t, ts2.URL)
	if len(sess) < 2 || sess[0] != 'e' {
		t.Errorf("second-boot session id %q lacks epoch prefix", sess)
	}
	resp, body := postJSON(t, ts2.URL+"/v1/txns", txnRequest{Session: sess, Kind: "transfer"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second-boot txn: status %d: %s", resp.StatusCode, body)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv2.Shutdown(ctx); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
	ts2.Close()

	// The spool spans both boots; merged it must validate, pass the
	// checker, and contain every acked commit.
	h, err := history.ReadSpoolFile(cfg.SpoolPath)
	if err != nil {
		t.Fatalf("spool: %v", err)
	}
	rep, err := history.Check(h)
	if err != nil {
		t.Fatalf("spool history check: %v", err)
	}
	if !rep.Correctable {
		t.Fatalf("spool history not multilevel atomic: %s", rep.Summary())
	}
	exec, _, err := h.Committed()
	if err != nil {
		t.Fatal(err)
	}
	committed := make(map[model.TxnID]bool)
	for _, st := range exec {
		committed[st.Txn] = true
	}
	for _, id := range first {
		if !committed[id] {
			t.Errorf("acked %s missing from spool replay", id)
		}
	}
}

// TestServeDegradedMode: a device that fills up mid-run must flip the
// server to read-only shedding — writes 503 "degraded" with Retry-After,
// health probes reflect it, durability lookups still answer — instead of
// crashing or lying.
func TestServeDegradedMode(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	cfg.DataDir = filepath.Join(dir, "wal")
	cfg.DiskFaults = fault.Plan{Seed: 7, DiskFullAfter: 4096}

	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()

	sess := openTestSession(t, ts.URL)
	var acked []model.TxnID
	var sawDegraded bool
	for i := 0; i < 200; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/txns", txnRequest{Session: sess, Kind: "transfer"})
		switch resp.StatusCode {
		case http.StatusOK:
			var tr txnResponse
			if json.Unmarshal(body, &tr) == nil {
				acked = append(acked, model.TxnID(tr.Txn))
			}
		case http.StatusServiceUnavailable:
			var er errorResponse
			if err := json.Unmarshal(body, &er); err != nil {
				t.Fatalf("503 body: %s", body)
			}
			if er.Error != "degraded" && er.Error != "engine_failed" {
				t.Fatalf("503 code %q, want degraded", er.Error)
			}
			if er.Error == "degraded" {
				if resp.Header.Get("Retry-After") == "" {
					t.Error("degraded 503 without Retry-After")
				}
				sawDegraded = true
			}
		default:
			t.Fatalf("txn %d: unexpected status %d: %s", i, resp.StatusCode, body)
		}
		if sawDegraded {
			break
		}
	}
	if !sawDegraded {
		t.Fatal("device filled but no request saw a degraded 503")
	}
	if len(acked) == 0 {
		t.Fatal("no transactions acked before the device filled")
	}
	if !srv.Degraded() {
		t.Error("server not in degraded state after the disk filled")
	}
	if err := srv.Err(); !errors.Is(err, wal.ErrDegraded) || !errors.Is(err, fault.ErrDiskFull) {
		t.Errorf("Err() = %v, want wrapped ErrDegraded and ErrDiskFull", err)
	}

	// Probes: liveness reports the degradation; readiness refuses traffic.
	if resp, _ := http.Get(ts.URL + "/healthz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("degraded healthz: status %d, want 503", resp.StatusCode)
	}
	if resp, _ := http.Get(ts.URL + "/readyz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("degraded readyz: status %d, want 503", resp.StatusCode)
	}
	// Writes are refused with the degraded code...
	resp, body := postJSON(t, ts.URL+"/v1/txns", txnRequest{Session: sess, Kind: "transfer"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("degraded write: status %d, want 503: %s", resp.StatusCode, body)
	}
	var er errorResponse
	if json.Unmarshal(body, &er) != nil || er.Error != "degraded" {
		t.Errorf("degraded write code %q, want degraded: %s", er.Error, body)
	}
	if resp, _ := postJSON(t, ts.URL+"/v1/sessions", map[string]any{}); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("degraded session open: status %d, want 503", resp.StatusCode)
	}
	// ...but reads still serve: every pre-failure ack remains answerable.
	for _, id := range acked {
		if resp, _ := http.Get(ts.URL + "/v1/txns/" + string(id)); resp.StatusCode != http.StatusOK {
			t.Errorf("degraded lookup %s: status %d, want 200", id, resp.StatusCode)
		}
	}
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(metrics), "\nserve_wal_degraded 1\n") {
		t.Errorf("degraded /metrics: status %d, want 200 with serve_wal_degraded 1:\n%s", resp.StatusCode, metrics)
	}
}

// TestGateRecoveryWindow: before Mount, the front serves liveness and
// refuses everything else with 503 "recovering"; after Mount, it is the real
// handler; after Drain, it still answers, with 503; Close ends the serve loop.
func TestGateRecoveryWindow(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	f := Listen(ln)
	base := "http://" + ln.Addr().String()

	if resp, _ := http.Get(base + "/healthz"); resp.StatusCode != http.StatusOK {
		t.Errorf("gated healthz: status %d, want 200", resp.StatusCode)
	}
	resp, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("gated readyz: status %d, want 503", resp.StatusCode)
	}
	var er errorResponse
	if json.NewDecoder(resp.Body).Decode(&er) != nil || er.Error != "recovering" {
		t.Errorf("gated readyz code %q, want recovering", er.Error)
	}
	resp.Body.Close()
	if resp, _ := postJSON(t, base+"/v1/txns", txnRequest{Session: "x", Kind: "transfer"}); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("gated txn: status %d, want 503", resp.StatusCode)
	}

	srv, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	f.Mount(srv)
	if resp, _ := http.Get(base + "/readyz"); resp.StatusCode != http.StatusOK {
		t.Errorf("post-Mount readyz: status %d, want 200", resp.StatusCode)
	}
	sess := openTestSession(t, base)
	if resp, _ := postJSON(t, base+"/v1/txns", txnRequest{Session: sess, Kind: "transfer"}); resp.StatusCode != http.StatusOK {
		t.Errorf("post-Mount txn: status %d, want 200", resp.StatusCode)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := f.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if resp, _ := postJSON(t, base+"/v1/txns", txnRequest{Session: sess, Kind: "transfer"}); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-Drain txn: status %d, want 503", resp.StatusCode)
	}
	if err := f.Close(ctx); err != nil {
		t.Fatal(err)
	}
	select {
	case <-f.Stopped():
	default:
		t.Error("serve loop still running after Close")
	}
}

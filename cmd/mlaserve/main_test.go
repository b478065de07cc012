package main

import (
	"context"
	"io"
	"net"
	"net/http"
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

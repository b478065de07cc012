package serve

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync/atomic"
	"time"
)

// ReadHeaderTimeout and the front's 2 min idle bound: a client that never
// finishes a request header, or parks idle keep-alives, must not pin
// goroutines and descriptors forever — overload degrades, it does not hang.
// Bodies are bounded by the handler; the idle bound exceeds the load
// generator's own 90 s so a client closes first.
const ReadHeaderTimeout = 5 * time.Second

// Front is the one served lifecycle — cmd/mlaserve's serve mode (every soak
// child) and SelfTest (E21, mlaserve -selftest) both run it:
//
//	f := Listen(ln)       // answers from the first byte
//	srv, err := New(cfg)  // WAL recovery, however long the log
//	f.Mount(srv)          // the real API
//	f.Drain(ctx)          // Server.Shutdown; HTTP still answers, 503
//	f.Close(ctx)          // HTTP shutdown, serve loop joined
//
// Until Mount, /healthz is 200 (alive, making progress) and every other
// path, /readyz included, is 503 "recovering": the recovery window is
// observable from outside, not a connection-refused blackout.
type Front struct {
	hs      *http.Server
	mounted atomic.Pointer[mount]
	stopped chan struct{}
	err     error // the serve loop's; read once stopped is closed
}

type mount struct {
	srv *Server
	h   http.Handler
}

// Listen starts serving ln.
func Listen(ln net.Listener) *Front {
	f := &Front{stopped: make(chan struct{})}
	f.hs = &http.Server{Handler: http.HandlerFunc(f.serveHTTP), ReadHeaderTimeout: ReadHeaderTimeout, IdleTimeout: 2 * time.Minute}
	go func() {
		f.err = f.hs.Serve(ln)
		close(f.stopped)
	}()
	return f
}

// Mount swaps in srv's Handler; a request racing it sees one side or the
// other. Call once.
func (f *Front) Mount(srv *Server) { f.mounted.Store(&mount{srv, srv.Handler()}) }

// Stopped is closed when the serve loop ends: at Close, or early if the listener fails.
func (f *Front) Stopped() <-chan struct{} { return f.stopped }

// Drain is the mounted server's Shutdown (a no-op before Mount).
func (f *Front) Drain(ctx context.Context) error {
	if m := f.mounted.Load(); m != nil {
		return m.srv.Shutdown(ctx)
	}
	return nil
}

// Close shuts HTTP down gracefully, hanging up on whatever is still open
// when ctx ends, joins the serve loop, and returns its failure or else the
// history spool's latched write error. Call it after Drain.
func (f *Front) Close(ctx context.Context) error {
	if f.hs.Shutdown(ctx) != nil {
		f.hs.Close()
	}
	<-f.stopped
	if !errors.Is(f.err, http.ErrServerClosed) {
		return fmt.Errorf("serve: %w", f.err)
	}
	if m := f.mounted.Load(); m != nil && m.srv.spool != nil && m.srv.spool.Err() != nil {
		return fmt.Errorf("history spool: %w", m.srv.spool.Err())
	}
	return nil
}

func (f *Front) serveHTTP(w http.ResponseWriter, r *http.Request) {
	if m := f.mounted.Load(); m != nil {
		m.h.ServeHTTP(w, r)
	} else if r.URL.Path == "/healthz" {
		w.Write([]byte("ok\n"))
	} else {
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "recovering", Detail: "replaying write-ahead log; not ready", RetryAfterMS: 1000})
	}
}

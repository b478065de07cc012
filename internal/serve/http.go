package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"mla/internal/engine"
	"mla/internal/model"
	"mla/internal/wal"
)

// Handler returns the server's HTTP API:
//
//	POST   /v1/sessions        {"family": n?}            -> {"id", "family"}
//	DELETE /v1/sessions/{id}                             -> 204
//	POST   /v1/txns            {"session","kind","deadline_ms"?}
//	GET    /v1/txns/{id}       durability lookup          -> {"txn","durable"}
//	GET    /healthz            liveness (engine alive, disk healthy)
//	GET    /readyz             readiness (accepting, not draining)
//	GET    /statz              full Stats snapshot
//
// POST /v1/txns status codes carry the backpressure contract:
//
//	200 committed (durable before this response is written)
//	408 the transaction's deadline expired at a breakpoint
//	413 the request body exceeds maxBodyBytes
//	429 shed (admission timed out, retry budget spent) + Retry-After
//	503 draining, degraded (disk failed; read-only), or engine failed,
//	    + Retry-After where retry makes sense
//
// GET /v1/txns/{id} answers from the recovered WAL state: 200 when the
// commit record is durable (across any number of restarts), 404 when it is
// not — the crash-restart soak re-verifies every previously acked
// transaction through it.
//
// A request abandoned by its client (connection gone) is withdrawn at the
// transaction's next breakpoint; no response is deliverable, so none is
// recorded beyond the canceled counter.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sessions", s.handleOpenSession)
	mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleCloseSession)
	mux.HandleFunc("POST /v1/txns", s.handleTxn)
	mux.HandleFunc("GET /v1/txns/{id}", s.handleTxnLookup)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /statz", s.handleStatz)
	return mux
}

type openSessionRequest struct {
	Family *int `json:"family"`
}

type openSessionResponse struct {
	ID     string `json:"id"`
	Family int    `json:"family"`
}

type txnRequest struct {
	Session    string `json:"session"`
	Kind       string `json:"kind"`
	DeadlineMS int64  `json:"deadline_ms"`
}

// txnResponse is the 200 body's schema: writeCommitted emits it by hand.
type txnResponse struct {
	Txn       string `json:"txn"`
	Committed bool   `json:"committed"`
	Restarts  int    `json:"restarts"`
	LatencyUS int64  `json:"latency_us"`
	WaitedUS  int64  `json:"waited_us"`
}

type errorResponse struct {
	Error        string `json:"error"`
	Detail       string `json:"detail,omitempty"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
}

// bodies recycles the buffers POST bodies are read into and 200s encoded in.
var bodies = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// txnRequests recycles the values POST /v1/txns bodies decode into:
// json.Unmarshal takes a pointer it cannot prove stays on the stack, so a
// local would move to the heap on every request.
var txnRequests = sync.Pool{New: func() any { return new(txnRequest) }}

var jsonContentType = []string{"application/json"} // shared, never mutated

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// writeCommitted is writeJSON(w, 200, txnResponse{...}) for a transaction ID
// json writes verbatim — every ID the server mints — without reflection or
// an Encoder.
func writeCommitted(w http.ResponseWriter, id model.TxnID, out engine.Outcome) {
	buf := bodies.Get().(*bytes.Buffer)
	defer bodies.Put(buf)
	buf.Reset()
	b := append(append(buf.AvailableBuffer(), `{"txn":"`...), id...)
	b = strconv.AppendInt(append(b, `","committed":true,"restarts":`...), int64(out.Restarts), 10)
	b = strconv.AppendInt(append(b, `,"latency_us":`...), out.Latency.Microseconds(), 10)
	b = strconv.AppendInt(append(b, `,"waited_us":`...), out.Waited.Microseconds(), 10)
	w.Header()["Content-Type"] = jsonContentType
	w.Write(append(b, '}', '\n'))
}

// writeRetryable writes an error with the Retry-After contract: the header
// in whole seconds (rounded up, HTTP's resolution) and the precise hint in
// the body for clients that parse it.
func (s *Server) writeRetryable(w http.ResponseWriter, status int, code, detail string) {
	ra := s.RetryAfter()
	secs := int64((ra + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	writeJSON(w, status, errorResponse{Error: code, Detail: detail, RetryAfterMS: ra.Milliseconds()})
}

// maxBodyBytes bounds a request body. A well-formed request is under 200
// bytes; nothing a client sends may make the decoder buffer more than this.
const maxBodyBytes = 4 << 10

// decodeBody decodes the JSON request body into v. A declared length over
// the bound is refused with 413 before anything is read; a body of unknown
// length (chunked) is cut off at the bound, so the common fixed-length path
// pays one comparison. A body read to EOF is closed, so net/http has nothing
// left to drain before it writes the response. False means the error
// response is already written.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.ContentLength > maxBodyBytes {
		writeJSON(w, http.StatusRequestEntityTooLarge, errorResponse{Error: "body_too_large"})
		return false
	}
	body := r.Body
	if r.ContentLength < 0 {
		body = http.MaxBytesReader(w, body, maxBodyBytes)
	}
	buf := bodies.Get().(*bytes.Buffer)
	defer bodies.Put(buf)
	buf.Reset()
	_, err := buf.ReadFrom(body)
	if err == nil {
		body.Close()
		err = json.Unmarshal(buf.Bytes(), v)
	}
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeJSON(w, http.StatusRequestEntityTooLarge, errorResponse{Error: "body_too_large"})
		} else {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad_request", Detail: err.Error()})
		}
		return false
	}
	return true
}

// writeError maps a refusal from OpenSession or Submit to its status code.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrOverload):
		s.writeRetryable(w, http.StatusTooManyRequests, "overload", err.Error())
	case errors.Is(err, ErrDraining):
		s.writeRetryable(w, http.StatusServiceUnavailable, "draining", err.Error())
	case errors.Is(err, wal.ErrDegraded):
		// Checked before ErrSessionClosed: an engine that died OF the disk
		// reports the disk, so clients and probes see "degraded", not a
		// generic engine failure. Retry-After because an operator replacing
		// the volume brings a restarted server back.
		s.writeRetryable(w, http.StatusServiceUnavailable, "degraded", err.Error())
	case errors.Is(err, engine.ErrSessionClosed):
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "engine_failed", Detail: err.Error()})
	case errors.Is(err, ErrUnknownSession):
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "unknown_session", Detail: err.Error()})
	default:
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad_request", Detail: err.Error()})
	}
}

func (s *Server) handleOpenSession(w http.ResponseWriter, r *http.Request) {
	var req openSessionRequest
	if r.ContentLength != 0 && !decodeBody(w, r, &req) {
		return
	}
	family := -1
	if req.Family != nil {
		family = *req.Family
	}
	cs, err := s.OpenSession(family)
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, openSessionResponse{ID: cs.ID(), Family: cs.Family()})
}

func (s *Server) handleCloseSession(w http.ResponseWriter, r *http.Request) {
	if !s.CloseSession(r.PathValue("id")) {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "unknown_session"})
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleTxn(w http.ResponseWriter, r *http.Request) {
	req := txnRequests.Get().(*txnRequest)
	*req = txnRequest{}
	ok := decodeBody(w, r, req)
	tr := TxnRequest{
		Session:  req.Session,
		Kind:     req.Kind,
		Deadline: time.Duration(req.DeadlineMS) * time.Millisecond,
	}
	txnRequests.Put(req)
	if !ok {
		return
	}
	res, err := s.Submit(r.Context(), tr)
	if err != nil {
		s.writeError(w, err)
		return
	}

	out := res.Outcome
	switch {
	case out.Committed:
		writeCommitted(w, res.Txn, out)
	case out.DeadlineExceeded:
		writeJSON(w, http.StatusRequestTimeout, errorResponse{
			Error:  "deadline_exceeded",
			Detail: fmt.Sprintf("%s rolled back at a breakpoint after %d restarts", res.Txn, out.Restarts),
		})
	case out.GaveUp:
		s.writeRetryable(w, http.StatusTooManyRequests, "contention",
			fmt.Sprintf("%s exhausted its restart budget (%d rollbacks)", res.Txn, out.Restarts))
	case out.Canceled:
		// The client is gone; this write lands on a dead connection and is
		// best-effort only.
		writeJSON(w, http.StatusRequestTimeout, errorResponse{Error: "canceled"})
	}
}

func (s *Server) handleTxnLookup(w http.ResponseWriter, r *http.Request) {
	id := model.TxnID(r.PathValue("id"))
	if s.Durable(id) {
		writeJSON(w, http.StatusOK, map[string]any{"txn": string(id), "durable": true})
		return
	}
	writeJSON(w, http.StatusNotFound, map[string]any{"txn": string(id), "durable": false})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if err := s.Err(); err != nil {
		code := "engine_failed"
		if errors.Is(err, wal.ErrDegraded) {
			code = "degraded"
		}
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: code, Detail: err.Error()})
		return
	}
	w.Write([]byte("ok\n"))
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if !s.Accepting() {
		code, detail := "draining", "not accepting new transactions"
		if s.Degraded() {
			code, detail = "degraded", "durable medium failed; read-only"
		}
		s.writeRetryable(w, http.StatusServiceUnavailable, code, detail)
		return
	}
	w.Write([]byte("ready\n"))
}

func (s *Server) handleStatz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

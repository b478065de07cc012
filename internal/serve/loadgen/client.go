package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// Status classifies the outcome of one logical transaction.
type Status int

const (
	// StatusAcked: committed and durable (HTTP 200).
	StatusAcked Status = iota
	// StatusDeadline: the server gave up at the deadline (408).
	StatusDeadline
	// StatusShed: admission control refused and retries ran out (429).
	StatusShed
	// StatusDraining: the server is shutting down (503).
	StatusDraining
	// StatusCanceled: the client abandoned the request mid-flight.
	StatusCanceled
	// StatusDown: transport-level failure — the server was unreachable.
	StatusDown
	// StatusError: unexpected status or protocol violation.
	StatusError
)

// Request describes one logical transaction for a Client to execute.
type Request struct {
	// Session is the server session the transaction runs under.
	Session string
	// Kind selects the workload ("transfer", "credit", "audit").
	Kind string
	// DeadlineMS is the per-transaction deadline (0 = server default).
	DeadlineMS int64
	// Disconnect injects client misbehavior: the request context is
	// cancelled a few hundred microseconds in, simulating a dropped
	// connection mid-transaction.
	Disconnect bool
	// Jitter seeds this request's backoff jitter (and the disconnect
	// timing), so retry storms decorrelate without the pool owning a
	// shared RNG.
	Jitter time.Duration
}

// Result is the outcome of a single attempt (retries are the Pool's job).
type Result struct {
	Status Status
	// Txn is the server-assigned transaction ID (acked results only).
	Txn string
	// LatencyUS is the server-reported service latency in microseconds.
	LatencyUS int64
	// ErrDetail carries the first line of diagnosis for Down/Error results.
	ErrDetail string
}

// Client executes transactions against a target. HTTPClient here drives a
// real mlaserve over the wire; the interface is the seam a decorator
// (benchmark/'s per-request timer) or an in-process target plugs into, so
// the Pool's open-loop methodology is identical for all of them.
//
// Implementations must be safe for concurrent use by many pool workers.
type Client interface {
	// OpenSession creates a session and returns its ID.
	OpenSession(ctx context.Context) (string, error)
	// CloseSession tears a session down (best effort).
	CloseSession(id string)
	// Do executes one transaction attempt under ctx.
	Do(ctx context.Context, r Request) Result
}

// HTTPClient drives mlaserve's HTTP API. The zero value is not usable; call
// NewHTTPClient, which installs a transport with a warm connection pool so
// pool workers reuse TCP connections instead of dialing per request.
type HTTPClient struct {
	base string
	hc   *http.Client
}

// NewHTTPClient returns a client for the server root base (e.g.
// "http://127.0.0.1:7070"). hc overrides the underlying *http.Client (tests
// inject httptest transports); nil gets a pooled default sized for the load
// harness.
func NewHTTPClient(base string, hc *http.Client) *HTTPClient {
	if hc == nil {
		hc = &http.Client{Transport: &http.Transport{
			MaxIdleConns:        256,
			MaxIdleConnsPerHost: 256,
			IdleConnTimeout:     90 * time.Second,
		}}
	}
	return &HTTPClient{base: base, hc: hc}
}

// OpenSession implements Client.
func (c *HTTPClient) OpenSession(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/sessions", bytes.NewReader([]byte("{}")))
	if err != nil {
		return "", err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("loadgen: open session: status %d", resp.StatusCode)
	}
	var sr struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		return "", err
	}
	return sr.ID, nil
}

// CloseSession implements Client.
func (c *HTTPClient) CloseSession(id string) {
	req, err := http.NewRequest(http.MethodDelete, c.base+"/v1/sessions/"+id, nil)
	if err != nil {
		return
	}
	resp, err := c.hc.Do(req)
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}

// txnBody is the POST /v1/txns request; fields in key order, so the bytes
// are those of marshalling the same three keys as a map.
type txnBody struct {
	DeadlineMS int64  `json:"deadline_ms"`
	Kind       string `json:"kind"`
	Session    string `json:"session"`
}

// Do implements Client: one POST /v1/txns attempt, classified by status.
func (c *HTTPClient) Do(ctx context.Context, r Request) Result {
	body, _ := json.Marshal(txnBody{DeadlineMS: r.DeadlineMS, Kind: r.Kind, Session: r.Session})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/txns", bytes.NewReader(body))
	if err != nil {
		return Result{Status: StatusError, ErrDetail: err.Error()}
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return Result{Status: StatusCanceled}
		}
		return Result{Status: StatusDown, ErrDetail: err.Error()}
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		var tr struct {
			Txn       string `json:"txn"`
			Committed bool   `json:"committed"`
			LatencyUS int64  `json:"latency_us"`
		}
		if json.NewDecoder(resp.Body).Decode(&tr) != nil || !tr.Committed {
			return Result{Status: StatusError, ErrDetail: "200 with unparseable or uncommitted body"}
		}
		return Result{Status: StatusAcked, Txn: tr.Txn, LatencyUS: tr.LatencyUS}
	case http.StatusRequestTimeout:
		var er struct {
			Error string `json:"error"`
		}
		if json.NewDecoder(resp.Body).Decode(&er) == nil && er.Error == "canceled" {
			return Result{Status: StatusCanceled}
		}
		return Result{Status: StatusDeadline}
	case http.StatusTooManyRequests:
		io.Copy(io.Discard, resp.Body)
		return Result{Status: StatusShed}
	case http.StatusServiceUnavailable:
		io.Copy(io.Discard, resp.Body)
		return Result{Status: StatusDraining}
	default:
		var buf bytes.Buffer
		io.Copy(&buf, io.LimitReader(resp.Body, 256))
		io.Copy(io.Discard, resp.Body)
		return Result{Status: StatusError, ErrDetail: fmt.Sprintf("status %d: %s", resp.StatusCode, buf.String())}
	}
}

// Reverify asks the server whether each previously acked transaction is
// still durable (GET /v1/txns/{id}) and returns the ones it denies — the
// lost-ack audit a crash-restart soak runs after every recovery. A 404
// here is the exact failure durability exists to prevent: the server said
// 200 and then forgot.
func Reverify(ctx context.Context, client *http.Client, baseURL string, ids []string) ([]string, error) {
	if client == nil {
		client = &http.Client{}
	}
	var lost []string
	for _, id := range ids {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/v1/txns/"+id, nil)
		if err != nil {
			return lost, err
		}
		resp, err := client.Do(req)
		if err != nil {
			return lost, fmt.Errorf("loadgen: reverify %s: %w", id, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK:
		case http.StatusNotFound:
			lost = append(lost, id)
		default:
			return lost, fmt.Errorf("loadgen: reverify %s: status %d", id, resp.StatusCode)
		}
	}
	return lost, nil
}

package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mla/internal/serve/loadgen"
)

// roundTripFunc serves an http.Client's requests in process.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// loadgenBody returns the bytes loadgen's HTTP client posts to /v1/txns for r.
func loadgenBody(t testing.TB, r loadgen.Request) []byte {
	var body []byte
	hc := &http.Client{Transport: roundTripFunc(func(req *http.Request) (*http.Response, error) {
		body, _ = io.ReadAll(req.Body)
		return &http.Response{StatusCode: http.StatusOK, Header: http.Header{}, Body: io.NopCloser(strings.NewReader(`{}`))}, nil
	})}
	loadgen.NewHTTPClient("http://mla.test", hc).Do(context.Background(), r)
	if body == nil {
		t.Fatal("loadgen posted no body")
	}
	return body
}

// FuzzTxnRequestBody: decoding a POST /v1/txns body gives what
// json.Unmarshal into a txnRequest gives — the same values, or the same
// error — and whenever scanTxnBody accepts a body, encoding/json accepts it
// with equal session, kind and deadline. A body past maxBodyBytes gets 413,
// declared or chunked.
func FuzzTxnRequestBody(f *testing.F) {
	srv, err := New(testConfig())
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { srv.Shutdown(context.Background()) })
	cs, err := srv.OpenSession(0)
	if err != nil {
		f.Fatal(err)
	}
	id := cs.ID()
	lg := loadgenBody(f, loadgen.Request{Session: id, Kind: "transfer", DeadlineMS: 250})
	for _, fast := range []string{
		string(lg),
		`{"kind":"audit","session":"` + id + `"}`,
		" \t\r\n{ \"session\" :\"" + id + "\" ,\n\"deadline_ms\":\t-0 , \"kind\": \"credit\" } \n",
		`{"deadline_ms":123456789012345678}`,
	} {
		if _, _, _, ok := scanTxnBody([]byte(fast)); !ok {
			f.Fatalf("the fast path refuses %s", fast)
		}
		f.Add([]byte(fast))
	}
	for _, slow := range []string{
		`{"session":"` + id + `","kind":"transfer"}`,
		`{"SESSION":"` + id + `","kind":"transfer"}`,
		`{"session":"` + id + `","Kind":"transfer"}`,
		`{"session":"` + id + `","kind":"\u0074ransfer"}`,
		`{"session":"e1\\s","kind":"transfer"}`,
		`{"session":"` + id + `","kind":"transfer","extra":{"a":[1,2,{"b":null}]}}`,
		`{"session":"` + id + `","nested":[["x"]],"kind":"audit"}`,
		`{"session":null,"kind":"transfer"}`,
		`{"session":"` + id + `","deadline_ms":null}`,
		`{"session":"` + id + `","deadline_ms":1e3}`,
		`{"session":"` + id + `","deadline_ms":1.0}`,
		`{"session":"` + id + `","deadline_ms":01}`,
		`{"session":"` + id + `","deadline_ms":9223372036854775807}`,
		`{"session":"` + id + `","deadline_ms":9223372036854775808}`,
		`{"session":"` + id + `","deadline_ms":-9223372036854775809}`,
		`{"session":"` + id + `","deadline_ms":"5"}`,
		`{"session":"a","session":"` + id + `"}`,
		`{"kind":"audit","kind":"transfer","session":"` + id + `"}`,
		`{"session":"` + id + `","kind":"transfer"`,
		`{"session":"` + id,
		`{"session":`,
		`{}`,
		`{`,
		``,
		`null`,
		`[]`,
		`{"session":"` + id + `"} x`,
		`{"session":"` + id + `",}`,
		"{\"session\":\"a\x7fb\"}",
		"{\"session\":\"caf\xc3\xa9\"}",
		`{"session":"e1-s\"0"}`,
		`{"session":5}`,
		"\ufeff{}",
		`{"session":"` + strings.Repeat("a", maxBodyBytes-13) + `"}`, // one byte past the bound
	} {
		f.Add([]byte(slow))
	}
	h := srv.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		var want txnRequest
		werr := json.Unmarshal(body, &want)
		if session, kind, ms, ok := scanTxnBody(body); ok {
			if werr != nil || string(session) != want.Session || string(kind) != want.Kind || ms != want.DeadlineMS {
				t.Fatalf("fast path decodes %q to (%q, %q, %d); json.Unmarshal to %+v, %v", body, session, kind, ms, want, werr)
			}
		}
		got, err := srv.decodeTxn(body)
		switch {
		case (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error():
			t.Fatalf("decodeTxn(%q) fails with %v; json.Unmarshal with %v", body, err, werr)
		case err == nil && got != (TxnRequest{Session: want.Session, Kind: want.Kind, Deadline: time.Duration(want.DeadlineMS) * time.Millisecond}):
			t.Fatalf("decodeTxn(%q) = %+v; json.Unmarshal gives %+v", body, got, want)
		}
		if len(body) <= maxBodyBytes {
			return
		}
		for _, chunked := range []bool{false, true} {
			req := httptest.NewRequest(http.MethodPost, "/v1/txns", bytes.NewReader(body))
			if chunked {
				req.ContentLength = -1
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusRequestEntityTooLarge || !strings.Contains(rec.Body.String(), `"body_too_large"`) {
				t.Fatalf("%d-byte body (chunked %v): %d %s, want 413 body_too_large", len(body), chunked, rec.Code, rec.Body)
			}
		}
	})
}

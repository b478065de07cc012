package serve

// Pins of the request path's rewrites: synthesize draws the rng exactly as
// the rng.Perm version did, minted IDs and the 200 body are byte-identical
// to their fmt / encoding/json forms, and one POST /v1/txns stays inside its
// allocation budget.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"mla/internal/bank"
	"mla/internal/engine"
	"mla/internal/model"
)

// referenceTransfer is synthesize's transfer arm as it was written over
// rng.Perm and bank.World.Account: the golden the rewrite must reproduce.
func referenceTransfer(cfg Config, w bank.World, rng *rand.Rand, f int) (sources []model.EntityID, targets [2]model.EntityID) {
	nsrc := 3
	if nsrc > cfg.AccountsPerFamily {
		nsrc = cfg.AccountsPerFamily
	}
	for _, ai := range rng.Perm(cfg.AccountsPerFamily)[:nsrc] {
		sources = append(sources, w.Account(f, ai))
	}
	tf := f
	if cfg.Families > 1 && rng.Intn(100) < crossFamilyPct {
		for tf == f {
			tf = rng.Intn(cfg.Families)
		}
	}
	picked := 0
	for _, ai := range rng.Perm(cfg.AccountsPerFamily) {
		cand := w.Account(tf, ai)
		dup := false
		for _, src := range sources {
			if src == cand {
				dup = true
				break
			}
		}
		if !dup {
			targets[picked] = cand
			picked++
			if picked == 2 {
				break
			}
		}
	}
	for picked < 2 {
		targets[picked] = w.Account(tf, rng.Intn(cfg.AccountsPerFamily))
		picked++
	}
	return sources, targets
}

// TestSynthesizeGolden: for 1,000 session seeds and three world shapes (fewer
// accounts than sources, the default, more than the stack array holds), three
// transfers in a row pick the accounts the rng.Perm version picked — same
// draws, so the session's stream stays aligned — and audits and credits keep
// their IDs, account lists, result entities and class paths.
func TestSynthesizeGolden(t *testing.T) {
	for _, per := range []int{2, 4, 20} {
		cfg := testConfig()
		cfg.Families, cfg.AccountsPerFamily = 5, per
		cfg.SpoolPath = t.TempDir() + "/h.spool" // class paths are built only for a spool
		srv, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(0); seed < 1000; seed++ {
			f := int(seed) % cfg.Families
			cs := &clientSession{id: fmt.Sprintf("e2-s%06d", seed), family: f, rng: rand.New(rand.NewSource(seed))}
			ref := rand.New(rand.NewSource(seed))
			for k := 0; k < 3; k++ {
				p, path, err := srv.synthesize(cs, "transfer")
				if err != nil {
					t.Fatal(err)
				}
				tr := p.(*bank.Transfer)
				sources, targets := referenceTransfer(cfg, srv.pop.World, ref, f)
				if !reflect.DeepEqual(tr.Sources, sources) || tr.Targets != targets {
					t.Fatalf("per %d seed %d transfer %d: %v -> %v, the rng.Perm version picks %v -> %v",
						per, seed, k, tr.Sources, tr.Targets, sources, targets)
				}
				wantID := model.TxnID(fmt.Sprintf("xfer-%s-%07d", cs.id, srv.txnSeq.Load()))
				if p.ID() != wantID || !reflect.DeepEqual(path, []string{"cust", fmt.Sprintf("fam-%02d", f)}) {
					t.Fatalf("transfer %s (want %s) declared under %v", p.ID(), wantID, path)
				}
			}
			for kind, want := range map[string]struct {
				prefix, result string
				accounts       []model.EntityID
				path           func(id string) []string
			}{
				"audit":  {"audit", "auditres/", srv.pop.World.Accounts(), func(id string) []string { return []string{"audit/" + id, "audit/" + id} }},
				"credit": {"cred", "credres/", srv.pop.World.FamilyAccounts(f), func(id string) []string { return []string{"cust", "cred/" + id} }},
			} {
				p, path, err := srv.synthesize(cs, kind)
				if err != nil {
					t.Fatal(err)
				}
				a, id := p.(*bank.Audit), fmt.Sprintf("%s-%s-%07d", want.prefix, cs.id, srv.txnSeq.Load())
				if string(a.Txn) != id || string(a.Result) != want.result+id ||
					!reflect.DeepEqual(a.Accounts, want.accounts) || !reflect.DeepEqual(path, want.path(id)) {
					t.Fatalf("%s: %+v under %v, want id %s over %v under %v", kind, a, path, id, want.accounts, want.path(id))
				}
			}
		}
		srv.Shutdown(context.Background())
	}
}

// TestMintIDMatchesSprintf covers the zero padding at every width.
func TestMintIDMatchesSprintf(t *testing.T) {
	for _, n := range []int64{1, 9, 10, 99_999, 999_999, 1_000_000, 9_999_999, 10_000_000, 123_456_789_012} {
		if got, want := mintID("xfer-", "e12-s000345", n), fmt.Sprintf("xfer-%s-%07d", "e12-s000345", n); string(got) != want {
			t.Fatalf("mintID(%d) = %s, want %s", n, got, want)
		}
	}
}

// TestTxnResponseBytes: the hand-written 200 body is what json.Encoder wrote
// for the same txnResponse.
func TestTxnResponseBytes(t *testing.T) {
	for id, out := range map[model.TxnID]engine.Outcome{
		"xfer-e1-s000001-0000001": {Committed: true, Latency: 1234 * time.Microsecond},
		"audit-s000016-1234567":   {Committed: true, Restarts: 3, Latency: 98765432 * time.Microsecond, Waited: 41 * time.Microsecond},
	} {
		rec := httptest.NewRecorder()
		writeCommitted(rec, id, out)
		var want bytes.Buffer
		json.NewEncoder(&want).Encode(txnResponse{Txn: string(id), Committed: true, Restarts: out.Restarts,
			LatencyUS: out.Latency.Microseconds(), WaitedUS: out.Waited.Microseconds()})
		if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "application/json" || !bytes.Equal(rec.Body.Bytes(), want.Bytes()) {
			t.Fatalf("wrote %d %q %q, want 200 application/json %q", rec.Code, rec.Header().Get("Content-Type"), rec.Body.Bytes(), want.Bytes())
		}
	}
}

// nullResponse is a ResponseWriter that keeps nothing, so the budget below
// counts the server's allocations, not a recorder's.
type nullResponse struct {
	h      http.Header
	status int
}

func (w *nullResponse) Header() http.Header  { return w.h }
func (w *nullResponse) WriteHeader(code int) { w.status = code }
func (w *nullResponse) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK // as net/http does for a Write without WriteHeader
	}
	return len(b), nil
}

// TestHandleTxnAllocBudget: one uncontended POST /v1/txns transfer through
// Handler().ServeHTTP on an in-memory server — body decode, admission,
// synthesize, the engine's 5–6 steps, the group commit and its ack, the
// response — spends at most 14 heap allocations. The measured steady state
// is 10, and 13 or 14 under -race, whose sync.Pool drops a share of what it
// is given: encoding/json's decode state and the two strings it decodes, the
// id, the transfer, its state slab and the flush's ack. It was 37 with
// rng.Perm, fmt-minted names and a json.Decoder and Encoder per request, and
// 15 while a finalizer goroutine woke every commit waiter through a fresh
// channel. A trip here means pooling, the precomputed tables or the engine's
// reuse of its commit queue regressed, not noise.
func TestHandleTxnAllocBudget(t *testing.T) {
	const allocCeiling = 14
	srv, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	cs, err := srv.OpenSession(0)
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	payload := []byte(`{"deadline_ms":0,"kind":"transfer","session":"` + cs.ID() + `"}`)
	body := bytes.NewReader(nil)
	req := httptest.NewRequest(http.MethodPost, "/v1/txns", nil)
	req.Body, req.ContentLength = io.NopCloser(body), int64(len(payload))
	w := &nullResponse{h: make(http.Header)}
	got := testing.AllocsPerRun(500, func() {
		body.Reset(payload)
		w.status = 0
		h.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			t.Fatalf("status %d", w.status)
		}
	})
	t.Logf("%.1f allocs per POST /v1/txns", got)
	if got > allocCeiling {
		t.Fatalf("%.1f allocs per POST /v1/txns, budget %d", got, allocCeiling)
	}
}

package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"mla/internal/bank"
	"mla/internal/breakpoint"
	"mla/internal/history"
	"mla/internal/model"
	"mla/internal/telemetry"
)

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Families = 4
	cfg.AccountsPerFamily = 3
	cfg.MaxInflight = 16
	cfg.QueueDepth = 16
	return cfg
}

func startServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return srv, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func openTestSession(t *testing.T, base string) string {
	t.Helper()
	resp, body := postJSON(t, base+"/v1/sessions", map[string]any{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("open session: status %d: %s", resp.StatusCode, body)
	}
	var sr openSessionResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	return sr.ID
}

// TestServeCommit: the basic contract — a transfer through the HTTP API
// commits, the response reports it, and the commit is durable on the WAL.
func TestServeCommit(t *testing.T) {
	srv, ts := startServer(t, testConfig())
	sess := openTestSession(t, ts.URL)
	for _, kind := range []string{"transfer", "audit", "credit"} {
		resp, body := postJSON(t, ts.URL+"/v1/txns", txnRequest{Session: sess, Kind: kind})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", kind, resp.StatusCode, body)
		}
		var tr txnResponse
		if err := json.Unmarshal(body, &tr); err != nil {
			t.Fatal(err)
		}
		if !tr.Committed || tr.Txn == "" {
			t.Fatalf("%s: not committed: %+v", kind, tr)
		}
		if !srv.Durable(model.TxnID(tr.Txn)) {
			t.Fatalf("%s: %s acked but not durable", kind, tr.Txn)
		}
	}
	st := srv.Stats()
	if st.Acked != 3 || st.Engine.Committed != 3 {
		t.Errorf("stats: acked %d, engine committed %d, want 3/3", st.Acked, st.Engine.Committed)
	}
}

// TestServeUnknownSessionAndKind: 404 for a session never opened, 400 for
// a kind the server does not synthesize.
func TestServeUnknownSessionAndKind(t *testing.T) {
	_, ts := startServer(t, testConfig())
	resp, _ := postJSON(t, ts.URL+"/v1/txns", txnRequest{Session: "nope", Kind: "transfer"})
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown session: status %d, want 404", resp.StatusCode)
	}
	sess := openTestSession(t, ts.URL)
	resp, _ = postJSON(t, ts.URL+"/v1/txns", txnRequest{Session: sess, Kind: "heist"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown kind: status %d, want 400", resp.StatusCode)
	}
}

// TestServeUnknownKindBeforeAdmission: with the engine's one admission slot
// held, an unknown kind is still refused at once with the kind error — not
// shed as overload after AdmitWait — and takes no transaction number.
func TestServeUnknownKindBeforeAdmission(t *testing.T) {
	cfg := testConfig()
	cfg.MaxInflight = 1
	cfg.AdmitWait = 5 * time.Second
	srv, _ := startServer(t, cfg)
	cs, err := srv.OpenSession(0)
	if err != nil {
		t.Fatal(err)
	}
	if !srv.global.acquire(context.Background(), time.Second) {
		t.Fatal("could not take the global slot")
	}
	defer srv.global.release()
	start := time.Now()
	_, err = srv.Submit(context.Background(), TxnRequest{Session: cs.ID(), Kind: "bogus"})
	if err == nil || errors.Is(err, ErrOverload) || !strings.Contains(err.Error(), "unknown transaction kind") {
		t.Fatalf("Submit(bogus) = %v, want the unknown-kind error", err)
	}
	if d := time.Since(start); d > cfg.AdmitWait/2 {
		t.Errorf("refused after %v: the request waited for admission", d)
	}
	if st := srv.Stats(); st.Shed != 0 {
		t.Errorf("shed %d, want 0", st.Shed)
	}
	if n := srv.txnSeq.Load(); n != 0 {
		t.Errorf("the refused request took transaction number %d", n)
	}
}

// TestServeOverload: with the engine's one admission slot held hostage,
// the next request must be shed with 429 and a Retry-After hint, and the
// shed must show up in the stats.
func TestServeOverload(t *testing.T) {
	cfg := testConfig()
	cfg.MaxInflight = 1
	cfg.AdmitWait = 5 * time.Millisecond
	srv, ts := startServer(t, cfg)
	sess := openTestSession(t, ts.URL)

	// Occupy the single global slot directly; the HTTP path then cannot
	// admit anything until it is released.
	if !srv.global.acquire(context.Background(), time.Second) {
		t.Fatal("could not take the global slot")
	}
	resp, body := postJSON(t, ts.URL+"/v1/txns", txnRequest{Session: sess, Kind: "transfer"})
	srv.global.release()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	var er errorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.RetryAfterMS <= 0 {
		t.Errorf("429 body lacks retry_after_ms: %s", body)
	}
	if st := srv.Stats(); st.Shed != 1 {
		t.Errorf("stats shed = %d, want 1", st.Shed)
	}

	// Released: the same request now commits.
	resp, body = postJSON(t, ts.URL+"/v1/txns", txnRequest{Session: sess, Kind: "transfer"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-release status %d: %s", resp.StatusCode, body)
	}
}

// TestServeDeadline: a server whose default deadline is immediately spent
// answers 408 — the transaction is refused or rolled back at a breakpoint,
// never half-done.
func TestServeDeadline(t *testing.T) {
	cfg := testConfig()
	cfg.DefaultDeadline = time.Nanosecond
	cfg.MaxDeadline = time.Nanosecond
	srv, ts := startServer(t, cfg)
	sess := openTestSession(t, ts.URL)
	resp, body := postJSON(t, ts.URL+"/v1/txns", txnRequest{Session: sess, Kind: "transfer"})
	if resp.StatusCode != http.StatusRequestTimeout {
		t.Fatalf("status %d, want 408: %s", resp.StatusCode, body)
	}
	if st := srv.Stats(); st.Deadline != 1 {
		t.Errorf("stats deadline = %d, want 1", st.Deadline)
	}
}

// TestServeRetryBudget: a session whose retry budget is spent is shed with
// 429 before it can queue again.
func TestServeRetryBudget(t *testing.T) {
	cfg := testConfig()
	cfg.SessionRetryBudget = 1
	srv, ts := startServer(t, cfg)
	sess := openTestSession(t, ts.URL)
	cs := srv.lookupSession(sess)
	cs.budget.Store(0)
	resp, body := postJSON(t, ts.URL+"/v1/txns", txnRequest{Session: sess, Kind: "transfer"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", resp.StatusCode, body)
	}
	if st := srv.Stats(); st.BudgetDenied != 1 {
		t.Errorf("stats budget_denied = %d, want 1", st.BudgetDenied)
	}
}

// TestServeDrain: Shutdown stops admission (readyz flips, txns 503), lets
// in-flight work resolve, and leaves every prior ack durable.
func TestServeDrain(t *testing.T) {
	srv, ts := startServer(t, testConfig())
	sess := openTestSession(t, ts.URL)
	resp, body := postJSON(t, ts.URL+"/v1/txns", txnRequest{Session: sess, Kind: "transfer"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-drain txn: status %d: %s", resp.StatusCode, body)
	}
	var tr txnResponse
	json.Unmarshal(body, &tr)

	if r, err := http.Get(ts.URL + "/readyz"); err != nil || r.StatusCode != http.StatusOK {
		t.Fatalf("readyz before drain: %v %v", r.StatusCode, err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if r, _ := http.Get(ts.URL + "/readyz"); r.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz after drain: status %d, want 503", r.StatusCode)
	}
	if r, _ := http.Get(ts.URL + "/healthz"); r.StatusCode != http.StatusOK {
		t.Errorf("healthz after clean drain: status %d, want 200 (drain is not a failure)", r.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/txns", txnRequest{Session: sess, Kind: "transfer"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-drain txn: status %d, want 503", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/sessions", map[string]any{})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-drain session open: status %d, want 503", resp.StatusCode)
	}
	if !srv.Durable(model.TxnID(tr.Txn)) {
		t.Errorf("%s acked before drain but not durable after", tr.Txn)
	}
	// Shutdown is idempotent.
	if err := srv.Shutdown(ctx); err != nil {
		t.Errorf("second shutdown: %v", err)
	}
}

// TestServeHistoryAudit: an in-memory server's spooled history replays,
// passes the black-box MLA checker, and contains every acknowledged commit
// — the same audit `mlacheck -history` performs on the file.
func TestServeHistoryAudit(t *testing.T) {
	cfg := testConfig()
	cfg.SpoolPath = filepath.Join(t.TempDir(), "history.spool")
	srv, ts := startServer(t, cfg)

	var mu sync.Mutex
	var acked []string
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess := openTestSession(t, ts.URL)
			for i := 0; i < 6; i++ {
				kind := "transfer"
				if i == 3 {
					kind = "credit"
				}
				if w == 0 && i == 5 {
					kind = "audit"
				}
				resp, body := postJSON(t, ts.URL+"/v1/txns", txnRequest{Session: sess, Kind: kind})
				if resp.StatusCode == http.StatusOK {
					var tr txnResponse
					if json.Unmarshal(body, &tr) == nil && tr.Committed {
						mu.Lock()
						acked = append(acked, tr.Txn)
						mu.Unlock()
					}
				}
			}
		}(w)
	}
	wg.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := srv.spool.Err(); err != nil {
		t.Fatalf("spool: %v", err)
	}

	if len(acked) == 0 {
		t.Fatal("no acks collected")
	}
	rep := auditSpool(cfg.SpoolPath, acked, func(format string, args ...any) { t.Errorf(format, args...) })
	if rep == nil || rep.Txns < len(acked) {
		t.Fatalf("checker saw %+v, want at least the %d acked transactions", rep, len(acked))
	}
	for _, id := range acked {
		if !srv.Durable(model.TxnID(id)) {
			t.Errorf("acked %s not durable", id)
		}
	}
}

// TestServeRecordsBankCuts: the cut the server records after each step is
// the one bank.Population's Spec gives that step's prefix. One client
// submits transfers, credits and audits one at a time, so the run is serial
// and replaying the same programs in submission order reproduces every
// step's values: each committed transaction's recorded description must be
// breakpoint.Describe over its replayed steps, and some transfer must show
// its withdrawal-phase boundary (coarseness 2).
func TestServeRecordsBankCuts(t *testing.T) {
	cfg := testConfig()
	cfg.InitialBalance = 60 // below the goal: a phase takes one to three withdrawals
	cfg.SpoolPath = filepath.Join(t.TempDir(), "history.spool")
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := srv.OpenSession(1)
	if err != nil {
		t.Fatal(err)
	}
	// The test repeats the session's draws to rebuild each transfer.
	cs.rng = rand.New(rand.NewSource(7))
	twin := rand.New(rand.NewSource(7))
	pop := srv.pop
	var programs []model.Program
	for i := 0; i < 20; i++ {
		kind := [...]string{"transfer", "transfer", "credit", "transfer", "audit"}[i%5]
		res, err := srv.Submit(context.Background(), TxnRequest{Session: cs.ID(), Kind: kind})
		if err != nil || !res.Outcome.Committed {
			t.Fatalf("%s %d: %+v %v", kind, i, res, err)
		}
		var prog model.Program
		switch kind {
		case "transfer":
			prog, _ = pop.DrawTransfer(twin, res.Txn, cs.family, crossFamilyPct)
		case "credit":
			prog, _ = pop.Credit(res.Txn, cs.family)
		default:
			prog, _ = pop.Audit(res.Txn)
		}
		programs = append(programs, prog)
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	h, err := history.ReadSpoolFile(cfg.SpoolPath)
	if err != nil {
		t.Fatal(err)
	}
	exec, recorded, err := h.Committed()
	if err != nil {
		t.Fatal(err)
	}
	replay, err := model.RunSerial(programs, pop.World.Init())
	if err != nil {
		t.Fatal(err)
	}
	if len(replay) != len(exec) {
		t.Fatalf("served %d committed steps, the replay %d", len(exec), len(replay))
	}
	steps := make(map[model.TxnID][]model.Step)
	for i, st := range replay {
		if exec[i].Txn != st.Txn || exec[i].Entity != st.Entity {
			t.Fatalf("step %d: served %s on %s, replayed %s on %s", i, exec[i].Txn, exec[i].Entity, st.Txn, st.Entity)
		}
		steps[st.Txn] = append(steps[st.Txn], st)
	}
	phases := 0
	for _, prog := range programs {
		id := prog.ID()
		pop.Prepare(prog, nil) // the server is down: the table is the test's
		if want := breakpoint.Describe(pop.Spec, id, steps[id]); !reflect.DeepEqual(recorded[id], want) {
			t.Errorf("%s recorded %v, the bank's rule gives %v", id, recorded[id], want)
		}
		if _, ok := prog.(*bank.Transfer); ok {
			for p := 1; p < recorded[id].Len(); p++ {
				if recorded[id].Coarseness(p) == 2 {
					phases++
				}
			}
		}
	}
	if phases == 0 {
		t.Error("no transfer recorded its withdrawal-phase boundary")
	}
}

// TestServeInMemoryStartsNewHistory: without a data directory there is no
// boot epoch, so a second server mints the first one's identifiers again.
// Pointed at the same spool it must start a new history, not append a run
// that would replay as "committed twice".
func TestServeInMemoryStartsNewHistory(t *testing.T) {
	cfg := testConfig()
	cfg.SpoolPath = filepath.Join(t.TempDir(), "history.spool")
	run := func(n int) []string {
		srv, ts := startServer(t, cfg)
		sess := openTestSession(t, ts.URL)
		var acked []string
		for i := 0; i < n; i++ {
			resp, body := postJSON(t, ts.URL+"/v1/txns", txnRequest{Session: sess, Kind: "transfer"})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("txn %d: status %d: %s", i, resp.StatusCode, body)
			}
			var tr txnResponse
			if err := json.Unmarshal(body, &tr); err != nil {
				t.Fatal(err)
			}
			acked = append(acked, tr.Txn)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Fatalf("shutdown: %v", err)
		}
		return acked
	}
	first, second := run(5), run(3)
	if first[0] != second[0] {
		t.Fatalf("fixture: in-memory boots minted %s then %s, want the same id", first[0], second[0])
	}

	rep := auditSpool(cfg.SpoolPath, second, func(format string, args ...any) { t.Errorf(format, args...) })
	if rep == nil || rep.Txns != len(second) {
		t.Fatalf("spool holds %+v, want exactly the second run's %d transactions", rep, len(second))
	}
}

// TestServeBoundsRequestBodies: both body-taking routes refuse an oversized
// body with 413 — by its declared length, or cut off at the bound when it
// arrives chunked — and still serve a normal one.
func TestServeBoundsRequestBodies(t *testing.T) {
	_, ts := startServer(t, testConfig())
	sess := openTestSession(t, ts.URL)
	big := `{"session":"` + strings.Repeat("a", 2*maxBodyBytes) + `"}`
	for _, route := range []struct{ path, normal string }{
		{"/v1/sessions", `{"family":1}`},
		{"/v1/txns", `{"session":"` + sess + `","kind":"transfer"}`},
	} {
		for _, tc := range []struct {
			name    string
			body    string
			chunked bool
			want    int
		}{
			{"oversized fixed-length", big, false, http.StatusRequestEntityTooLarge},
			{"oversized chunked", big, true, http.StatusRequestEntityTooLarge},
			{"normal", route.normal, false, http.StatusOK},
			{"normal chunked", route.normal, true, http.StatusOK},
		} {
			t.Run(route.path+" "+tc.name, func(t *testing.T) {
				var body io.Reader = strings.NewReader(tc.body)
				if tc.chunked {
					body = struct{ io.Reader }{body} // hides the length: the client must chunk
				}
				resp, err := http.Post(ts.URL+route.path, "application/json", body)
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				var er errorResponse
				json.NewDecoder(resp.Body).Decode(&er)
				if resp.StatusCode != tc.want {
					t.Fatalf("status %d (%+v), want %d", resp.StatusCode, er, tc.want)
				}
				if tc.want == http.StatusRequestEntityTooLarge && er.Error != "body_too_large" {
					t.Errorf("413 body %+v, want error body_too_large", er)
				}
			})
		}
	}
}

// TestServeConcurrentLoadNoLeaks: a burst of concurrent HTTP clients, then
// drain — conservation must hold on the WAL values and nothing may leak.
func TestServeConcurrentLoadNoLeaks(t *testing.T) {
	before := runtime.NumGoroutine()
	cfg := testConfig()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())

	var wg sync.WaitGroup
	for w := 0; w < 12; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess := openTestSession(t, ts.URL)
			for i := 0; i < 5; i++ {
				resp, _ := postJSON(t, ts.URL+"/v1/txns", txnRequest{Session: sess, Kind: "transfer"})
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusTooManyRequests &&
					resp.StatusCode != http.StatusRequestTimeout {
					t.Errorf("unexpected status %d", resp.StatusCode)
				}
			}
		}()
	}
	wg.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	ts.Close()

	// Conservation: transfers move money, audits only read; result
	// entities live outside the account space.
	var sum model.Value
	for x, v := range srv.db.Values() {
		if len(x) >= 4 && x[:4] != "audi" && x[:4] != "cred" {
			sum += v
		}
	}
	want := srv.pop.World.Total()
	if sum != want {
		t.Errorf("accounts sum to %d, want %d", sum, want)
	}
	waitGoroutines(t, before)
}

// TestMetricsScrapeUnderLoad: one goroutine calls Stats and another scrapes
// GET /metrics while transfers commit, under each control. Under -race it
// catches an unsynchronized copy of the control's counters: the serial
// controls count in live state, and ShardedTwoPhase folds every reading
// into one shared struct. Once quiescent, the scrape agrees with Stats and
// serves each engine quantity once: with telemetry attached too, there is
// no engine_* line beside the serve_engine_* ones.
func TestMetricsScrapeUnderLoad(t *testing.T) {
	for _, name := range []string{"2pl-sharded", "2pl", "tso", "2pl-sharded+telemetry"} {
		t.Run(name, func(t *testing.T) {
			cfg := testConfig()
			control, withTel := strings.CutSuffix(name, "+telemetry")
			cfg.Control = control
			if withTel {
				cfg.Telemetry = telemetry.New()
			}
			srv, ts := startServer(t, cfg)
			ctx := context.Background()
			stop := make(chan struct{})
			var readers, writers sync.WaitGroup
			for _, read := range []func() error{
				func() error { srv.Stats(); return nil },
				func() error { _, err := fetchMetrics(ctx, ts.Client(), ts.URL); return err },
			} {
				readers.Add(1)
				go func() {
					defer readers.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						if err := read(); err != nil {
							t.Error(err)
							return
						}
					}
				}()
			}
			for w := 0; w < 4; w++ {
				cs, err := srv.OpenSession(-1)
				if err != nil {
					t.Fatal(err)
				}
				writers.Add(1)
				go func() {
					defer writers.Done()
					for i := 0; i < 50; i++ {
						if _, err := srv.Submit(ctx, TxnRequest{Session: cs.ID(), Kind: "transfer"}); err != nil {
							t.Error(err)
							return
						}
					}
				}()
			}
			writers.Wait()
			close(stop)
			readers.Wait()
			m, err := fetchMetrics(ctx, ts.Client(), ts.URL)
			if err != nil {
				t.Fatal(err)
			}
			st := srv.Stats()
			if st.Acked == 0 || m["serve_acked"] != float64(st.Acked) ||
				m["serve_sched_requests"] != float64(st.Sched.Requests) || m["serve_gates_inflight_admitted"] != float64(st.Gates["inflight"].Admitted) {
				t.Errorf("scrape acked %v, requests %v, admitted %v; Stats %d, %d, %d",
					m["serve_acked"], m["serve_sched_requests"], m["serve_gates_inflight_admitted"],
					st.Acked, st.Sched.Requests, st.Gates["inflight"].Admitted)
			}
			if steps, committed := m["serve_engine_steps"], m["serve_engine_committed"]; committed == 0 || steps < committed {
				t.Errorf("scrape serve_engine_steps %v, serve_engine_committed %v", steps, committed)
			}
			if w, ok := m["serve_engine_waits"]; !ok || w != float64(st.Engine.Waits) {
				t.Errorf("scrape serve_engine_waits %v (served %t), Stats %d", w, ok, st.Engine.Waits)
			}
			for k := range m {
				if strings.HasPrefix(k, "engine_") {
					t.Errorf("scrape serves %s beside serve_engine_*", k)
				}
			}
		})
	}
}

// waitGoroutines mirrors the engine tests' leak check.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSelfTestSmoke runs the full selftest loop at CI scale: open-loop
// load with disconnects and a mid-run drain, all assertions on.
func TestSelfTestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("selftest loop in -short mode")
	}
	// Load duration ≈ (Txns/Sessions)/Rate = 20/40 = 500ms, so the 250ms
	// drain lands mid-load: the first half commits, the second half must
	// see clean 503s.
	rep, err := SelfTest(context.Background(), SelfTestOptions{
		Sessions:      20,
		Txns:          400,
		Rate:          40,
		AuditPct:      2,
		CreditPct:     8,
		DisconnectPct: 5,
		DrainAfter:    250 * time.Millisecond,
		P99SLO:        5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range rep.Problems {
		t.Error(p)
	}
	if rep.Load.Acked == 0 {
		t.Error("no acks")
	}
}

// TestSelfTestOverload: the overload cell must actually shed.
func TestSelfTestOverload(t *testing.T) {
	if testing.Short() {
		t.Skip("selftest loop in -short mode")
	}
	rep, err := SelfTest(context.Background(), SelfTestOptions{
		Sessions: 16,
		Txns:     240,
		Rate:     400,
		Overload: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range rep.Problems {
		t.Error(p)
	}
	if rep.Load.Shed == 0 && rep.Stats.Shed == 0 {
		t.Error("overload run shed nothing")
	}
}

func ExampleServer_Handler() {
	srv, err := New(DefaultConfig())
	if err != nil {
		fmt.Println(err)
		return
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, _ := http.Get(ts.URL + "/healthz")
	fmt.Println(resp.StatusCode)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	srv.Shutdown(ctx)
	// Output: 200
}

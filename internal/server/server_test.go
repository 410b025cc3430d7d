package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/smtlib"
)

// postSolve submits one problem and decodes the reply.
func postSolve(t *testing.T, url string, req solveRequest) (solveResponse, int) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	httpResp, err := http.Post(url+"/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /solve: %v", err)
	}
	defer httpResp.Body.Close()
	var resp solveResponse
	if err := json.NewDecoder(httpResp.Body).Decode(&resp); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return resp, httpResp.StatusCode
}

func readExample(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "examples", "smt2", name))
	if err != nil {
		t.Fatalf("reading example: %v", err)
	}
	return string(b)
}

func TestSolveEndpoint(t *testing.T) {
	s := New(Config{Workers: 2})
	defer func() { _ = s.Shutdown(context.Background()) }()
	ts := httptest.NewServer(s)
	defer ts.Close()

	src := readExample(t, "quickstart.smt2")
	resp, code := postSolve(t, ts.URL, solveRequest{SMTLIB: src})
	if code != http.StatusOK {
		t.Fatalf("status code = %d, want 200", code)
	}
	if resp.Status != "sat" || resp.Cached {
		t.Fatalf("first solve = %q cached=%v, want cold sat", resp.Status, resp.Cached)
	}
	if resp.Model == nil || resp.Model.Strings["x"] == "" || resp.Model.Ints["n"] != "42" {
		t.Fatalf("model missing or wrong: %+v", resp.Model)
	}
	if resp.Witness == nil || len(resp.Witness.Str) == 0 {
		t.Fatalf("witness missing: %+v", resp.Witness)
	}
	if resp.Canonical == "" {
		t.Fatal("canonical hash missing")
	}

	// Identical repeat: served from cache.
	again, _ := postSolve(t, ts.URL, solveRequest{SMTLIB: src})
	if again.Status != "sat" || !again.Cached {
		t.Fatalf("repeat = %q cached=%v, want cached sat", again.Status, again.Cached)
	}
	if again.Canonical != resp.Canonical {
		t.Fatal("repeat produced a different canonical hash")
	}

	// Alpha-renamed variant of the quickstart example: same canonical
	// hash, still a cache hit, model under the NEW names.
	renamed := `(set-logic QF_SLIA)
(declare-fun value () String)
(declare-fun num () Int)
(assert (= num (str.to_int value)))
(assert (= num 42))
(assert (= (str.len value) 4))
(check-sat)`
	ren, _ := postSolve(t, ts.URL, solveRequest{SMTLIB: renamed})
	if !ren.Cached || ren.Status != "sat" {
		t.Fatalf("alpha-renamed request = %q cached=%v, want cached sat", ren.Status, ren.Cached)
	}
	if ren.Canonical != resp.Canonical {
		t.Fatal("alpha-renamed problem hashed differently")
	}
	if ren.Model == nil || ren.Model.Ints["num"] != "42" {
		t.Fatalf("cached model not under renamed variables: %+v", ren.Model)
	}

	// no_cache bypasses the cache.
	fresh, _ := postSolve(t, ts.URL, solveRequest{SMTLIB: src, NoCache: true})
	if fresh.Cached {
		t.Fatal("no_cache request served from cache")
	}
}

func TestSolveUnsatCached(t *testing.T) {
	s := New(Config{Workers: 1})
	defer func() { _ = s.Shutdown(context.Background()) }()
	ts := httptest.NewServer(s)
	defer ts.Close()

	src := `(declare-fun x () String)
(assert (= (str.len x) 3))
(assert (= x "ab"))
(check-sat)`
	resp, _ := postSolve(t, ts.URL, solveRequest{SMTLIB: src})
	if resp.Status != "unsat" || resp.Cached {
		t.Fatalf("first solve = %q cached=%v, want cold unsat", resp.Status, resp.Cached)
	}
	again, _ := postSolve(t, ts.URL, solveRequest{SMTLIB: src})
	if again.Status != "unsat" || !again.Cached {
		t.Fatalf("repeat = %q cached=%v, want cached unsat", again.Status, again.Cached)
	}
}

func TestSolveBadRequests(t *testing.T) {
	s := New(Config{Workers: 1, MaxRequestBytes: 512})
	defer func() { _ = s.Shutdown(context.Background()) }()
	ts := httptest.NewServer(s)
	defer ts.Close()

	for _, tc := range []struct {
		name string
		body string
		code int
	}{
		{"not json", "pure garbage", http.StatusBadRequest},
		{"parse error", `{"smtlib": "(assert (="}`, http.StatusBadRequest},
		{"oversized", fmt.Sprintf(`{"smtlib": %q}`, strings.Repeat("x", 600)),
			http.StatusRequestEntityTooLarge},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/solve", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatalf("POST: %v", err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.code {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.code)
			}
		})
	}
}

func TestSolveTimeout(t *testing.T) {
	s := New(Config{Workers: 1})
	defer func() { _ = s.Shutdown(context.Background()) }()
	ts := httptest.NewServer(s)
	defer ts.Close()

	src, err := smtlib.Write(bench.Luhn(9).Build())
	if err != nil {
		t.Fatalf("writing luhn: %v", err)
	}
	resp, code := postSolve(t, ts.URL, solveRequest{SMTLIB: src, TimeoutMS: 50})
	if code != http.StatusOK {
		t.Fatalf("status code = %d, want 200", code)
	}
	if resp.Status != "unknown" || !resp.TimedOut {
		t.Fatalf("got %q timed_out=%v, want unknown timed_out", resp.Status, resp.TimedOut)
	}
	// A timed-out run must not poison the cache.
	again, _ := postSolve(t, ts.URL, solveRequest{SMTLIB: src, TimeoutMS: 50})
	if again.Cached {
		t.Fatal("timed-out verdict was served from cache")
	}
}

// TestHugeTimeoutIsClamped asks for a deadline whose nanosecond value
// overflows int64. The request must still be held to MaxTimeout, not
// run with no deadline at all.
func TestHugeTimeoutIsClamped(t *testing.T) {
	const maxTimeout = 100 * time.Millisecond
	s := New(Config{Workers: 1, MaxTimeout: maxTimeout})
	defer func() { _ = s.Shutdown(context.Background()) }()
	ts := httptest.NewServer(s)
	defer ts.Close()

	src, err := smtlib.Write(bench.Luhn(9).Build())
	if err != nil {
		t.Fatalf("writing luhn: %v", err)
	}
	start := time.Now()
	resp, code := postSolve(t, ts.URL, solveRequest{SMTLIB: src, TimeoutMS: 9223372036855})
	elapsed := time.Since(start)
	if code != http.StatusOK {
		t.Fatalf("status code = %d, want 200", code)
	}
	if resp.Status != "unknown" || !resp.TimedOut {
		t.Fatalf("got %q timed_out=%v after %v, want unknown timed_out", resp.Status, resp.TimedOut, elapsed)
	}
	if elapsed > maxTimeout+2*time.Second {
		t.Fatalf("solve took %v, want it cut near MaxTimeout %v", elapsed, maxTimeout)
	}
}

func TestStatsAndMetricsEndpoints(t *testing.T) {
	s := New(Config{Workers: 1})
	defer func() { _ = s.Shutdown(context.Background()) }()
	ts := httptest.NewServer(s)
	defer ts.Close()

	src := readExample(t, "date.smt2")
	if resp, _ := postSolve(t, ts.URL, solveRequest{SMTLIB: src}); resp.Status != "sat" {
		t.Fatalf("date example = %q, want sat", resp.Status)
	}
	postSolve(t, ts.URL, solveRequest{SMTLIB: src}) // cache hit

	httpResp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatalf("GET /stats: %v", err)
	}
	defer httpResp.Body.Close()
	var st statsResponse
	if err := json.NewDecoder(httpResp.Body).Decode(&st); err != nil {
		t.Fatalf("decode /stats: %v", err)
	}
	if st.Requests.Sat != 1 {
		t.Fatalf("stats sat = %d, want 1", st.Requests.Sat)
	}
	if st.Requests.CacheServed != 1 || st.Cache.Hits != 1 || st.Cache.Entries != 1 {
		t.Fatalf("cache stats = served %d hits %d entries %d, want 1/1/1",
			st.Requests.CacheServed, st.Cache.Hits, st.Cache.Entries)
	}
	if st.Queue.Workers != 1 || st.Queue.Capacity != 2 {
		t.Fatalf("queue stats = %+v", st.Queue)
	}
	if st.Engine == nil || len(st.Engine.Children) == 0 {
		t.Fatal("engine stats snapshot empty after a solve")
	}

	metResp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer metResp.Body.Close()
	var metrics map[string]float64
	if err := json.NewDecoder(metResp.Body).Decode(&metrics); err != nil {
		t.Fatalf("decode /metrics: %v", err)
	}
	if metrics["requests_sat_total"] != 1 || metrics["cache_hits_total"] != 1 {
		t.Fatalf("metrics = %v", metrics)
	}
}

func TestShutdownDrainsAndRejects(t *testing.T) {
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(s)
	defer ts.Close()

	src := readExample(t, "jsarray.smt2")
	if resp, _ := postSolve(t, ts.URL, solveRequest{SMTLIB: src}); resp.Status != "sat" {
		t.Fatalf("jsarray example = %q, want sat", resp.Status)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	// Idempotent.
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}
	// New work is rejected with an explicit drain response.
	_, code := postSolve(t, ts.URL, solveRequest{SMTLIB: src})
	if code != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown solve status = %d, want 503", code)
	}
	health, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	defer health.Body.Close()
	if health.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz status = %d, want 503", health.StatusCode)
	}
}

// TestCacheHitFaster is the acceptance criterion: a repeated identical
// request is served from cache measurably faster than the cold solve.
func TestCacheHitFaster(t *testing.T) {
	s := New(Config{Workers: 1, DefaultTimeout: 60 * time.Second, MaxTimeout: 60 * time.Second})
	defer func() { _ = s.Shutdown(context.Background()) }()
	ts := httptest.NewServer(s)
	defer ts.Close()

	src, err := smtlib.Write(bench.Luhn(7).Build())
	if err != nil {
		t.Fatalf("writing luhn: %v", err)
	}
	coldStart := time.Now()
	cold, _ := postSolve(t, ts.URL, solveRequest{SMTLIB: src})
	coldDur := time.Since(coldStart)
	if cold.Status != "sat" || cold.Cached {
		t.Fatalf("cold solve = %q cached=%v, want cold sat", cold.Status, cold.Cached)
	}
	warmStart := time.Now()
	warm, _ := postSolve(t, ts.URL, solveRequest{SMTLIB: src})
	warmDur := time.Since(warmStart)
	if warm.Status != "sat" || !warm.Cached {
		t.Fatalf("warm solve = %q cached=%v, want cached sat", warm.Status, warm.Cached)
	}
	if warmDur >= coldDur/2 {
		t.Fatalf("cache hit not measurably faster: cold %v, warm %v", coldDur, warmDur)
	}
	t.Logf("cold %v, warm %v", coldDur, warmDur)
}

package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/smtlib"
)

// waitAccepted polls until the server has admitted n interactive jobs
// to its queue.
func waitAccepted(t *testing.T, s *Server, n int64) {
	t.Helper()
	waitFor(t, "admission", func() bool { return s.ctr.requests.Load() >= n })
}

type solveReply struct {
	resp solveResponse
	code int
	err  error
}

// postSolveAsync submits one problem on its own goroutine.
func postSolveAsync(url string, req solveRequest) <-chan solveReply {
	out := make(chan solveReply, 1)
	go func() {
		var r solveReply
		body, err := json.Marshal(req)
		if err != nil {
			r.err = err
			out <- r
			return
		}
		hr, err := http.Post(url+"/solve", "application/json", bytes.NewReader(body))
		if err != nil {
			r.err = err
			out <- r
			return
		}
		defer hr.Body.Close()
		r.code = hr.StatusCode
		r.err = json.NewDecoder(hr.Body).Decode(&r.resp)
		out <- r
	}()
	return out
}

// TestCoalescedFollowerAnswersAtItsOwnDeadline pins the follower side
// of dedup-in-flight: a request that coalesces onto another request's
// solve keeps its own deadline. It answers unknown/deadline when that
// deadline passes, the leader keeps solving, and the leader's verdict
// still lands in the cache.
func TestCoalescedFollowerAnswersAtItsOwnDeadline(t *testing.T) {
	s := New(Config{Workers: 1})
	defer func() { _ = s.Shutdown(context.Background()) }()
	ts := httptest.NewServer(s)
	defer ts.Close()

	src, err := smtlib.Write(bench.Luhn(8).Build())
	if err != nil {
		t.Fatalf("writing luhn: %v", err)
	}
	leader := postSolveAsync(ts.URL, solveRequest{SMTLIB: src, TimeoutMS: 25000})
	waitAccepted(t, s, 1)

	follower, code := postSolve(t, ts.URL, solveRequest{SMTLIB: src, TimeoutMS: 100})
	if code != http.StatusOK {
		t.Fatalf("follower status code = %d, want 200", code)
	}
	if follower.Status != "unknown" || follower.Reason != "deadline" || !follower.TimedOut ||
		follower.Coalesced || follower.Canonical == "" {
		t.Fatalf("follower = %+v, want unknown/deadline, timed out, not coalesced", follower)
	}
	select {
	case r := <-leader:
		t.Fatalf("leader answered %q before the follower's deadline reply was read; want it still solving", r.resp.Status)
	default:
	}

	r := <-leader
	if r.err != nil {
		t.Fatalf("leader: %v", r.err)
	}
	if r.code != http.StatusOK || r.resp.Status != "sat" || r.resp.Cached {
		t.Fatalf("leader = %d %+v, want a cold sat", r.code, r.resp)
	}
	again, _ := postSolve(t, ts.URL, solveRequest{SMTLIB: src})
	if again.Status != "sat" || !again.Cached {
		t.Fatalf("repeat = %q cached=%v, want the leader's verdict from the cache", again.Status, again.Cached)
	}
	st := getStats(t, ts.URL)
	if st.Requests.Timeouts != 1 || st.Dedup.Coalesced != 0 || st.Requests.Accepted != 1 {
		t.Fatalf("stats: timeouts %d coalesced %d accepted %d, want 1/0/1",
			st.Requests.Timeouts, st.Dedup.Coalesced, st.Requests.Accepted)
	}
}

// TestQueuedLeaderPastDeadlineAnswersAtDequeue pins the queued side: a
// request's deadline runs while it waits in the admission queue, but
// the request answers when a worker dequeues it, without solving —
// not at the moment its deadline passes.
func TestQueuedLeaderPastDeadlineAnswersAtDequeue(t *testing.T) {
	s := New(Config{Workers: 1})
	defer func() { _ = s.Shutdown(context.Background()) }()
	ts := httptest.NewServer(s)
	defer ts.Close()

	slow, err := smtlib.Write(bench.Luhn(8).Build())
	if err != nil {
		t.Fatalf("writing luhn: %v", err)
	}
	blocker := postSolveAsync(ts.URL, solveRequest{SMTLIB: slow, TimeoutMS: 25000, NoCache: true})
	waitAccepted(t, s, 1)
	for depth, _ := s.sched.depths(); depth > 0; depth, _ = s.sched.depths() {
		time.Sleep(time.Millisecond) // until the worker holds the blocker
	}

	const deadlineMS = 50
	queued, code := postSolve(t, ts.URL, solveRequest{SMTLIB: readExample(t, "quickstart.smt2"), TimeoutMS: deadlineMS})
	if code != http.StatusOK {
		t.Fatalf("queued status code = %d, want 200", code)
	}
	if queued.Status != "unknown" || queued.Reason != "deadline" || !queued.TimedOut || queued.Rounds != 0 {
		t.Fatalf("queued = %+v, want unknown/deadline without a solve", queued)
	}
	if queued.QueuedMS < 2*deadlineMS {
		t.Fatalf("queued_ms = %.1f, want the wait to outlast the %d ms deadline (answered at dequeue)",
			queued.QueuedMS, deadlineMS)
	}
	if r := <-blocker; r.err != nil || r.resp.Status != "sat" {
		t.Fatalf("blocker = %+v (%v), want sat", r.resp, r.err)
	}
}

// TestBatchInstanceCoalescesOntoSolveLeader pins that both request
// classes walk one dispatch ladder over one flight table: a batch
// instance of a problem an interactive /solve is already solving
// follows that solve instead of queueing its own, and the leader's
// verdict answers it.
func TestBatchInstanceCoalescesOntoSolveLeader(t *testing.T) {
	s := New(Config{Workers: 1})
	defer func() { _ = s.Shutdown(context.Background()) }()
	ts := httptest.NewServer(s)
	defer ts.Close()

	src, err := smtlib.Write(bench.Luhn(8).Build())
	if err != nil {
		t.Fatalf("writing luhn: %v", err)
	}
	leader := postSolveAsync(ts.URL, solveRequest{SMTLIB: src, TimeoutMS: 25000})
	waitAccepted(t, s, 1)

	acc, code := postBatch(t, ts.URL, "bulk", batchRequest{Instances: []batchInstance{{SMTLIB: src}}})
	if code != http.StatusAccepted {
		t.Fatalf("POST /batch: status %d, want 202", code)
	}
	jr := pollJob(t, ts.URL, acc.JobID, 60*time.Second)
	if r := <-leader; r.err != nil || r.resp.Status != "sat" || r.resp.Cached {
		t.Fatalf("leader = %+v (%v), want a cold sat", r.resp, r.err)
	}
	if got := jr.Results[0]; got.Status != "sat" || !got.Coalesced || got.Model == nil {
		t.Fatalf("batch instance = %+v, want sat coalesced onto the /solve leader", got)
	}
	st := getStats(t, ts.URL)
	if st.Dedup.Coalesced != 1 || st.Queue.BatchWait.Count != 0 {
		t.Fatalf("stats: coalesced %d, batch dequeues %d; want 1 and 0",
			st.Dedup.Coalesced, st.Queue.BatchWait.Count)
	}
}

// TestCoalescedFollowerClientCancelGetsNoAnswer pins the client side
// of a follower: a client that disconnects while its request follows
// another request's solve is counted gone, and when the leader's
// verdict lands the abandoned request is neither answered nor
// dispatched again.
func TestCoalescedFollowerClientCancelGetsNoAnswer(t *testing.T) {
	s := New(Config{Workers: 1})
	defer func() { _ = s.Shutdown(context.Background()) }()
	ts := httptest.NewServer(s)
	defer ts.Close()

	src, err := smtlib.Write(bench.Luhn(8).Build())
	if err != nil {
		t.Fatalf("writing luhn: %v", err)
	}
	leader := postSolveAsync(ts.URL, solveRequest{SMTLIB: src, TimeoutMS: 25000})
	waitAccepted(t, s, 1)

	ctx, cancel := context.WithCancel(context.Background())
	body, _ := json.Marshal(solveRequest{SMTLIB: src, TimeoutMS: 25000})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/solve", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("building request: %v", err)
	}
	done := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		done <- err
	}()
	waitFor(t, "the follower to join the flight", func() bool {
		s.flights.mu.Lock()
		defer s.flights.mu.Unlock()
		for _, fl := range s.flights.flights {
			if len(fl.waiters) > 0 {
				return true
			}
		}
		return false
	})
	cancel()
	if err := <-done; err == nil {
		t.Fatal("cancelled follower got a response")
	}
	waitFor(t, "the server to see the client go", func() bool { return s.ctr.clientsGone.Load() == 1 })

	if r := <-leader; r.err != nil || r.resp.Status != "sat" {
		t.Fatalf("leader = %+v (%v), want sat", r.resp, r.err)
	}
	st := getStats(t, ts.URL)
	if st.Requests.ClientsGone != 1 || st.Dedup.Coalesced != 0 || st.Dedup.Fallbacks != 0 ||
		st.Requests.Timeouts != 0 || st.Requests.Accepted != 1 {
		t.Fatalf("stats: clients_gone %d coalesced %d fallbacks %d timeouts %d accepted %d, want 1/0/0/0/1",
			st.Requests.ClientsGone, st.Dedup.Coalesced, st.Dedup.Fallbacks,
			st.Requests.Timeouts, st.Requests.Accepted)
	}
}

// waitFor polls cond until it holds, failing the test after 10s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

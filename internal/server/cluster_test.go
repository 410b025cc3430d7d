package server

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/smtlib"
)

// liveShard is one real trauserve shard on a real TCP socket: its own
// Server, worker pool, and http.Server. kill() models a SIGKILL from
// the cluster's point of view — the socket drops mid-conversation, no
// drain, no goodbye.
type liveShard struct {
	addr      string
	srv       *Server
	hs        *http.Server
	serveDone chan error
}

// kill severs the shard from the network abruptly (listener and all
// live connections closed). The solver process state is reaped later
// by stop, so goroutine accounting stays clean.
func (s *liveShard) kill() {
	s.hs.Close()
	<-s.serveDone
}

func (s *liveShard) stop(t *testing.T) {
	t.Helper()
	s.hs.Close()
	select {
	case <-s.serveDone:
	default:
	}
	if err := s.srv.Shutdown(context.Background()); err != nil {
		t.Errorf("shard %s shutdown: %v", s.addr, err)
	}
}

// startShardCluster boots n shards on pre-assigned loopback ports, so
// every shard knows the full address list (and its own place in it)
// before serving — exactly how -shards/-self wires a real cluster.
func startShardCluster(t *testing.T, n int, mk func(self string, addrs []string) Config) ([]*liveShard, []string) {
	t.Helper()
	listeners := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}
	shards := make([]*liveShard, n)
	for i := range shards {
		srv := New(mk(addrs[i], addrs))
		hs := &http.Server{Handler: srv}
		done := make(chan error, 1)
		go func(ln net.Listener) { done <- hs.Serve(ln) }(listeners[i])
		shards[i] = &liveShard{addr: addrs[i], srv: srv, hs: hs, serveDone: done}
	}
	return shards, addrs
}

// TestPeerCacheFill pins the distributed verdict cache: a shard that
// misses locally asks the canonical hash's owner before solving, the
// filled verdict re-validates against the requesting parse, and the
// fill is adopted so later requests are plain local hits.
func TestPeerCacheFill(t *testing.T) {
	before := fault.Snapshot()
	shards, addrs := startShardCluster(t, 2, func(self string, all []string) Config {
		return Config{Workers: 2, Peers: cluster.NewPeers(self, all, nil)}
	})

	src := qosSat(4242)
	script, err := smtlib.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	canon, err := smtlib.Canonicalize(script.Problem)
	if err != nil {
		t.Fatalf("canonicalize: %v", err)
	}
	ownerAddr := cluster.NewRing(addrs, 0).Owner(canon.Hash)
	var owner, other *liveShard
	for _, sh := range shards {
		if sh.addr == ownerAddr {
			owner = sh
		} else {
			other = sh
		}
	}

	// Solve on the owner: fills its cache.
	resp, code := postSolve(t, "http://"+owner.addr, solveRequest{SMTLIB: src})
	if code != 200 || resp.Status != "sat" || resp.PeerFilled {
		t.Fatalf("owner solve: code %d status %q peer_filled %v", code, resp.Status, resp.PeerFilled)
	}

	// The non-owner misses locally, fills from the owner, and serves
	// without solving.
	resp, code = postSolve(t, "http://"+other.addr, solveRequest{SMTLIB: src})
	if code != 200 || resp.Status != "sat" {
		t.Fatalf("peer-filled solve: code %d status %q", code, resp.Status)
	}
	if !resp.PeerFilled || !resp.Cached {
		t.Fatalf("non-owner response not marked peer-filled+cached: %+v", resp)
	}
	if resp.Witness == nil {
		t.Fatal("peer-filled sat verdict without witness")
	}

	// The fill was adopted: the next request is a plain local hit.
	resp, code = postSolve(t, "http://"+other.addr, solveRequest{SMTLIB: src})
	if code != 200 || !resp.Cached || resp.PeerFilled {
		t.Fatalf("post-fill request: code %d cached %v peer_filled %v, want a local hit",
			code, resp.Cached, resp.PeerFilled)
	}

	ownerStats := getStats(t, "http://"+owner.addr)
	otherStats := getStats(t, "http://"+other.addr)
	if ownerStats.Cluster == nil || ownerStats.Cluster.PeerServed != 1 {
		t.Errorf("owner cluster stats = %+v, want peer_served 1", ownerStats.Cluster)
	}
	if otherStats.Cluster == nil || otherStats.Cluster.PeerFills != 1 {
		t.Errorf("non-owner cluster stats = %+v, want peer_fills 1", otherStats.Cluster)
	}

	for _, sh := range shards {
		sh.stop(t)
	}
	fault.CheckLeaks(t, before)
}

// TestDifferentialClusterVsDirect is the cluster soundness gate: every
// bench generator solved through a 3-shard routed cluster must agree
// with a direct core.Solve — including after one shard is killed
// abruptly mid-load. Zero lost requests (every POST answers 200), zero
// SAT<->UNSAT flips, every served witness validates, and no goroutine
// leaks once the cluster is torn down.
func TestDifferentialClusterVsDirect(t *testing.T) {
	if testing.Short() {
		t.Skip("differential suite solves the full bench corpus twice")
	}
	before := fault.Snapshot()
	const budget = 20 * time.Second
	shards, addrs := startShardCluster(t, 3, func(self string, all []string) Config {
		return Config{
			Workers: 4, QueueDepth: 64,
			DefaultTimeout: budget, MaxTimeout: budget,
			Peers: cluster.NewPeers(self, all, nil),
		}
	})
	local := New(Config{Workers: 2, DefaultTimeout: budget, MaxTimeout: budget})
	rt, err := cluster.New(cluster.Config{
		Shards:          addrs,
		Local:           local,
		ProbeInterval:   50 * time.Millisecond,
		BreakerCooldown: 250 * time.Millisecond,
		MaxRetries:      2,
		RetryBase:       5 * time.Millisecond,
		RequestTimeout:  budget + 10*time.Second,
	})
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	front := httptest.NewServer(rt)

	insts := differentialInstances()
	killAt := len(insts) / 3
	for i, inst := range insts {
		if i == killAt {
			// SIGKILL one shard mid-load: in-flight and future requests
			// must fail over without losing a single verdict.
			shards[0].kill()
		}
		inst := inst
		t.Run(inst.Name, func(t *testing.T) {
			src, err := smtlib.Write(inst.Build())
			if err != nil {
				t.Skipf("instance not writable as SMT-LIB: %v", err)
			}
			resp, code := postSolve(t, front.URL, solveRequest{SMTLIB: src})
			if code != 200 {
				t.Fatalf("request lost: cluster answered %d", code)
			}

			script, err := smtlib.Parse(src)
			if err != nil {
				t.Fatalf("re-parsing written source: %v", err)
			}
			ec := engine.WithTimeout(budget)
			direct := core.SolveCtx(script.Problem, core.Options{}, ec)
			if resp.Status != direct.Status.String() {
				excused := resp.Status == "unknown" && (resp.TimedOut || resp.Reason != "") ||
					direct.Status == core.StatusUnknown && ec.TimedOut()
				if !excused {
					t.Fatalf("verdict flip: cluster %q, direct %v", resp.Status, direct.Status)
				}
				t.Logf("verdicts differ under resource limits (cluster %q, direct %v)", resp.Status, direct.Status)
			}
			if resp.Status == "sat" {
				if resp.Witness == nil {
					t.Fatal("cluster sat without witness")
				}
				w := witnessFromJSON(t, resp.Witness)
				fresh, err := smtlib.Parse(src)
				if err != nil {
					t.Fatalf("parsing for validation: %v", err)
				}
				canon, err := smtlib.Canonicalize(fresh.Problem)
				if err != nil {
					t.Fatalf("canonicalizing for validation: %v", err)
				}
				a := canon.Assignment(w)
				if a == nil || !fresh.Problem.Eval(a) {
					t.Fatal("served witness fails concrete evaluation")
				}
			}
		})
	}

	// The dead shard's breaker must have opened under the flood.
	st := rt.Snapshot(false)
	opened := false
	for _, sh := range st.Shards {
		if sh.Addr == shards[0].addr && sh.Breaker != "closed" {
			opened = true
		}
	}
	if !opened {
		t.Error("killed shard's breaker never opened")
	}
	if st.Failovers == 0 {
		t.Error("no failovers recorded though a shard died mid-load")
	}

	front.Close()
	rt.Close()
	if err := local.Shutdown(context.Background()); err != nil {
		t.Errorf("local fallback shutdown: %v", err)
	}
	for _, sh := range shards {
		sh.stop(t)
	}
	fault.CheckLeaks(t, before)
}

// TestClusterNetworkChaosSweep drives the network fault boundary the
// way the engine chaos tests drive Poll sites: one counting pass
// learns how many hops the workload takes, then every (k, op) pair
// injects exactly one fault — a refused connection, a black-holed
// stall, or a mid-body cut — at the k-th hop. Under every injection
// the workload must still settle completely and correctly: the
// robustness stack turns network faults into latency, never into lost
// requests or flipped verdicts.
func TestClusterNetworkChaosSweep(t *testing.T) {
	before := fault.Snapshot()
	type problem struct {
		src  string
		want string
	}
	problems := []problem{
		{qosSat(91), "sat"},
		{qosUnsat(92), "unsat"},
		{qosSat(93), "sat"},
		{qosUnsat(94), "unsat"},
	}
	for _, p := range problems {
		if got := directStatus(t, p.src); got != p.want {
			t.Fatalf("workload problem solves %q directly, want %q", got, p.want)
		}
	}

	run := func(t *testing.T, sched *fault.Schedule) {
		t.Helper()
		shards, addrs := startShardCluster(t, 3, func(self string, all []string) Config {
			return Config{Workers: 2}
		})
		rt, err := cluster.New(cluster.Config{
			Shards:        addrs,
			ProbeInterval: time.Hour, // quiet probes: hop counts stay deterministic
			MaxRetries:    2,
			RetryBase:     time.Millisecond,
			HopTimeout:    300 * time.Millisecond,
			Fault:         sched,
		})
		if err != nil {
			t.Fatalf("cluster.New: %v", err)
		}
		front := httptest.NewServer(rt)
		defer func() {
			front.Close()
			rt.Close()
			for _, sh := range shards {
				sh.stop(t)
			}
		}()
		for i, p := range problems {
			resp, code := postSolve(t, front.URL, solveRequest{SMTLIB: p.src})
			if code != 200 {
				t.Fatalf("request %d lost under injection: code %d", i, code)
			}
			if resp.Status != p.want {
				t.Fatalf("request %d verdict %q under injection, want %q", i, resp.Status, p.want)
			}
		}
	}

	counting := fault.AtNet(0, fault.NetNone)
	run(t, counting)
	hops := counting.NetVisits()
	if hops == 0 {
		t.Fatal("counting pass saw no network hops")
	}
	t.Logf("workload takes %d hops clean", hops)

	for _, op := range []fault.NetOp{fault.NetConnectFail, fault.NetStall, fault.NetCut} {
		for k := uint64(1); k <= hops; k++ {
			t.Run(op.String()+"@"+strconv.FormatUint(k, 10), func(t *testing.T) {
				sched := fault.AtNet(k, op)
				run(t, sched)
				if !sched.NetFired() {
					t.Errorf("schedule never fired at hop %d", k)
				}
			})
		}
	}
	fault.CheckLeaks(t, before)
}

// TestTenantRejectRetryAfterMapping pins the 429 backoff hint to the
// same backlog->drain-time mapping the queue-full 503 uses: a dry
// tenant with queued batch work is told to wait proportionally to its
// own backlog, not a constant.
func TestTenantRejectRetryAfterMapping(t *testing.T) {
	s := &Server{cfg: Config{Workers: 3}.withDefaults(), sched: newScheduler(8, 100)}
	s.cfg.Workers = 3
	for i := 0; i < 7; i++ {
		if err := s.sched.push(&job{class: classBatch, tenant: "hot"}); err != nil {
			t.Fatalf("push backlog job %d: %v", i, err)
		}
	}

	rr := httptest.NewRecorder()
	s.rejectTenant(rr, "hot")
	if rr.Code != http.StatusTooManyRequests {
		t.Fatalf("rejectTenant wrote %d, want 429", rr.Code)
	}
	want := strconv.Itoa(retryAfterSecs(7, 3))
	if got := rr.Header().Get("Retry-After"); got != want {
		t.Fatalf("Retry-After for a backlog of 7 over 3 workers = %q, want %q (the 503 mapping)", got, want)
	}

	// A dry tenant with no queued work gets the mapping's floor.
	rr = httptest.NewRecorder()
	s.rejectTenant(rr, "idle")
	if got := rr.Header().Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After with empty backlog = %q, want the floor \"1\"", got)
	}
}

// TestTenantRefillRecovers pins the token-bucket satellite end to end:
// a tenant that drains its pool is refused, but with -tenantrefill its
// admission re-opens on its own once the bucket earns its way back
// above zero.
func TestTenantRefillRecovers(t *testing.T) {
	// A Luhn(6) solve charges ~130k units, so a 1500-unit bucket trips
	// mid-solve on the first request; the recovery probes (~350 units
	// each) need less than one 20ms refill tick at 50k units/sec.
	s := New(Config{Workers: 2, TenantBudget: 1500, TenantRefill: 50000})
	defer func() { _ = s.Shutdown(context.Background()) }()
	ts := httptest.NewServer(s)
	defer ts.Close()

	slow, err := smtlib.Write(bench.Luhn(6).Build())
	if err != nil {
		t.Fatalf("writing luhn: %v", err)
	}
	sawDry := false
	for i := 0; i < 50 && !sawDry; i++ {
		resp, code := postTenant(t, ts.URL, "bursty", solveRequest{SMTLIB: slow, NoCache: true})
		switch code {
		case http.StatusOK:
			if resp.Status == "unknown" && resp.Reason != "" {
				sawDry = true // the solve itself tripped the pool
			}
		case http.StatusTooManyRequests:
			sawDry = true
		default:
			t.Fatalf("solve %d: status %d", i, code)
		}
	}
	if !sawDry {
		t.Fatal("tenant pool never ran dry")
	}

	// Unlike the prepaid pool (dry for the life of the process), the
	// bucket must recover: cheap unique problems so the verdict cache
	// cannot mask admission.
	recovered := false
	for i := 0; i < 150 && !recovered; i++ {
		resp, code := postTenant(t, ts.URL, "bursty", solveRequest{SMTLIB: qosSat(10000 + i)})
		if code == http.StatusOK && resp.Status == "sat" {
			recovered = true
		} else {
			time.Sleep(20 * time.Millisecond)
		}
	}
	if !recovered {
		t.Fatal("refilling tenant pool never re-opened admission")
	}
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/big"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/smtlib"
)

// Serve workload constants, sized for a 2-core host: one trauserve
// worker per server (leaving a core for HTTP and the generator), and
// at most two client connections.
//
// The traffic is assumed, not measured: no trauserve traffic has been
// observed or published. The assumptions are a cache-friendly client
// population (every problem the service can answer is asked again, in
// renamed form, ten times), simultaneous duplicates for half of the
// new problems, and an arrival rate of about a sixth of the closed-loop
// saturation rate. The report splits latency by request kind
// (latency_ms.cold.p50, latency_ms.cached.p50, within_slo_share.cold,
// within_slo_share.repeat), so a claim can say which part moved.
const (
	serveConns = 2
	// serveTimeoutMS is the timeout_ms of every request. It sits in the
	// gap of the tables pool's solve times between 0.37 s and 1.05 s,
	// so which instances settle does not depend on noise.
	serveTimeoutMS = 600
	serveSLOMS     = 250 // latency limit of within_slo_share
	// serveRate is the open-loop arrival rate per second. Much faster,
	// and an epoch's slow solves often overlap and hold both client
	// connections at once; every request behind them waits, and the
	// epoch medians vary up to twofold (measured at 60/s).
	serveRate = 36.0
	// serveEpochs is how many times a run sends a fresh seeded stream
	// over the distinct problems, each epoch to fresh deployments.
	serveEpochs = 2
	// serveSatLoops is how many closed loops measure saturation, each
	// over its own seeded stream and against a fresh deployment; the
	// first serveEpochs of those streams are the open-loop epochs'.
	serveSatLoops = 3
	// serveColdPasses is how many times a run sends every canonically
	// distinct problem once, cold, from one caller to a fresh
	// deployment; verdict times are per-problem medians over them.
	serveColdPasses = 7
	// serveRepeats is how many alpha-renamed repeats each SAT problem
	// gets: about 81% of the requests. problemsPerSuitePerSecond scales
	// the distinct problems with --seconds: 6 per suite at 20 s, 372
	// requests per epoch, which the open loop sends in about 10 s.
	serveRepeats              = 10
	problemsPerSuitePerSecond = 0.3
	// lagBoundMS is how late the open-loop generator may run (p99)
	// before the run is flagged invalid.
	lagBoundMS = 50
)

// request kinds of the serve stream.
const (
	kindCold   = "cold"   // first time the server sees the problem
	kindRepeat = "repeat" // alpha-renamed copy of an earlier problem: a cache hit
	kindDup    = "dup"    // sent together with the cold request it copies: coalesces
)

// streamReq is one request of the serve stream.
type streamReq struct {
	name     string // the problem's pool name
	expected bench.Expected
	kind     string
	text     string
	body     []byte         // the POST /solve body, encoded at set-up
	check    *smtlib.Script // pristine parse of text
	canon    *smtlib.Canon
	dueMS    float64 // open-loop offset from the phase start
}

// serveSetup is everything a serve run builds before it measures: the
// distinct problems, one seeded stream per closed loop (the first ones
// also drive the open-loop epochs), the seeded orders of the cold
// passes, and the first epoch's deployment.
type serveSetup struct {
	probs      []problem
	streams    [][]streamReq
	coldPasses [][]*streamReq
	stack      *stack
}

// buildStream draws the seeded request stream over probs. Every
// problem is sent cold once, in a seeded order; every second problem
// of probs also gets a back-to-back duplicate of its cold request;
// every planted-SAT problem is sent serveRepeats more times later, at
// seeded positions, alpha-renamed. Repeats are of SAT problems because
// a SAT cache hit is the one that re-validates a witness; an UNKNOWN
// is never cached, so a repeat of an unsettled problem would be a
// second cold solve, not a hit. The per-problem mix is the same for
// every seed. Arrival times are Poisson at serveRate.
func buildStream(probs []problem, seed int64) ([]streamReq, error) {
	rng := rand.New(rand.NewSource(seed))
	order := rng.Perm(len(probs))
	// Cold request i sits at key i; a repeat of it at a uniform key in
	// (i, len).
	type event struct {
		key  float64
		prob int
		kind string
	}
	var evs []event
	for i, p := range order {
		evs = append(evs, event{float64(i), p, kindCold})
		if p%2 == 1 {
			evs = append(evs, event{float64(i), p, kindDup})
		}
		if probs[p].expected != bench.ExpectSat {
			continue
		}
		for r := 0; r < serveRepeats; r++ {
			evs = append(evs, event{float64(i) + 0.5 + rng.Float64()*float64(len(order)-i-1), p, kindRepeat})
		}
	}
	sort.SliceStable(evs, func(a, b int) bool { return evs[a].key < evs[b].key })
	out := make([]streamReq, 0, len(evs))
	t := 0.0
	for _, e := range evs {
		if e.kind != kindDup { // a duplicate goes out together with its cold request
			t += rng.ExpFloat64() / serveRate * 1000
		}
		text := probs[e.prob].text
		if e.kind == kindRepeat {
			var err error
			if text, err = alphaRename(text, fmt.Sprintf("_r%d", len(out))); err != nil {
				return nil, err
			}
		}
		check, err := smtlib.Parse(text)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", probs[e.prob].name, err)
		}
		canon, err := smtlib.Canonicalize(check.Problem)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", probs[e.prob].name, err)
		}
		body, err := json.Marshal(map[string]any{"smtlib": text, "timeout_ms": serveTimeoutMS})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", probs[e.prob].name, err)
		}
		out = append(out, streamReq{name: probs[e.prob].name, expected: probs[e.prob].expected,
			kind: e.kind, text: text, body: body, check: check, canon: canon, dueMS: t})
	}
	return out, nil
}

// servePool picks the stream's distinct problems: perSuite instances
// of every Table 1 and Table 2 suite, evenly spaced through the suite.
// The set depends only on perSuite, not on the seed, so the slow
// instances it holds weigh the same in every run; the seed draws
// their order, the arrival times, the duplicates and the repeats.
func servePool(perSuite int) []problem {
	pool, _ := tablesPool()
	bySuite := map[string][]problem{}
	var suites []string
	for _, p := range pool {
		suite := p.name[:strings.IndexByte(p.name, '/')]
		if _, ok := bySuite[suite]; !ok {
			suites = append(suites, suite)
		}
		bySuite[suite] = append(bySuite[suite], p)
	}
	var out []problem
	for _, suite := range suites {
		ps := bySuite[suite]
		n := perSuite
		if n > len(ps) {
			n = len(ps)
		}
		for i := 0; i < n; i++ {
			out = append(out, ps[i*len(ps)/n])
		}
	}
	return out
}

// stack is one in-process serving deployment on loopback TCP: a
// trauserve server, or two shards with peer fill behind a router.
type stack struct {
	servers []*server.Server
	shards  []string // shard addresses
	https   []*http.Server
	done    []chan error
	router  *cluster.Router
	url     string
}

func startStack(routed bool) (*stack, error) {
	st := &stack{}
	n := 1
	if routed {
		n = 2
	}
	lns := make([]net.Listener, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, fmt.Errorf("listen: %w", err)
		}
		lns[i] = ln
		st.shards = append(st.shards, ln.Addr().String())
	}
	for i, ln := range lns {
		cfg := server.Config{Workers: 1}
		if routed {
			cfg.Peers = cluster.NewPeers(st.shards[i], st.shards, nil)
		}
		srv := server.New(cfg)
		st.servers = append(st.servers, srv)
		st.serve(srv, ln)
	}
	st.url = "http://" + st.shards[0]
	if routed {
		rt, err := cluster.New(cluster.Config{Shards: st.shards})
		if err != nil {
			st.close()
			return nil, err
		}
		st.router = rt
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			st.close()
			return nil, fmt.Errorf("listen: %w", err)
		}
		st.url = "http://" + ln.Addr().String()
		st.serve(rt, ln)
	}
	return st, nil
}

func (st *stack) serve(h http.Handler, ln net.Listener) {
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }() //lint:nocontain — net/http recovers handler panics; Serve runs no solver code itself
	st.https = append(st.https, hs)
	st.done = append(st.done, done)
}

// close stops the router, then the HTTP servers, then the solver
// pools, and waits for every goroutine it started.
func (st *stack) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := len(st.https) - 1; i >= 0; i-- {
		if err := st.https[i].Shutdown(ctx); err != nil {
			st.https[i].Close()
		}
		<-st.done[i]
	}
	if st.router != nil {
		st.router.Close()
	}
	for _, srv := range st.servers {
		if err := srv.Shutdown(ctx); err != nil {
			panic("perfbench: server did not drain: " + err.Error()) // contract: every request finished before close
		}
	}
}

// reply mirrors the fields of a POST /solve response the benchmark
// reads.
type reply struct {
	Status string `json:"status"`
	Model  *struct {
		Strings map[string]string `json:"strings"`
		Ints    map[string]string `json:"ints"`
	} `json:"model"`
	Witness *struct {
		Str []string `json:"str"`
		Int []string `json:"int"`
	} `json:"witness"`
	Cached     bool    `json:"cached"`
	PeerFilled bool    `json:"peer_filled"`
	Coalesced  bool    `json:"coalesced"`
	Rounds     int     `json:"rounds"`
	ElapsedMS  float64 `json:"elapsed_ms"`
	QueuedMS   float64 `json:"queued_ms"`
	Error      string  `json:"error"`
}

// outcome is one request's measured result.
type outcome struct {
	r         *streamReq
	code      int // 0 on a transport error
	rep       reply
	latencyMS float64 // from the due time (open loop) or the send (closed loop)
	rttMS     float64 // from the send
	lagMS     float64 // send time - due time
	failed    string  // a wrong answer or a broken exchange: the run is not correct
	refused   bool    // answered 503 or 429: a failed attempt, not a wrong answer
	decided   bool
	valMS     float64
}

// client sends stream requests to a stack over at most serveConns
// connections.
type client struct {
	http *http.Client
	url  string
}

func newClient(url string) *client {
	tr := &http.Transport{MaxConnsPerHost: serveConns, MaxIdleConnsPerHost: serveConns}
	return &client{http: &http.Client{Transport: tr}, url: url}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// send posts one request and checks the answer. due is when the
// request was due (the send time in a closed loop).
func (c *client) send(r *streamReq, due time.Time, tr *tracer) outcome {
	sendAt := time.Now()
	out := outcome{r: r, lagMS: ms(sendAt.Sub(due))}
	resp, err := c.http.Post(c.url+"/solve", "application/json", bytes.NewReader(r.body))
	if err != nil {
		out.failed = "transport: " + err.Error()
		return out
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	recv := time.Now()
	out.latencyMS, out.rttMS = ms(recv.Sub(due)), ms(recv.Sub(sendAt))
	out.code = resp.StatusCode
	if err != nil {
		out.failed = "transport: " + err.Error()
		return out
	}
	if resp.StatusCode == http.StatusServiceUnavailable || resp.StatusCode == http.StatusTooManyRequests {
		out.refused = true
		return out
	}
	if resp.StatusCode != http.StatusOK {
		out.failed = fmt.Sprintf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
		return out
	}
	if err := json.Unmarshal(data, &out.rep); err != nil {
		out.failed = "decoding response: " + err.Error()
		return out
	}
	checkReply(r, &out)
	if tr != nil {
		trace := tr.newTrace()
		root := tr.record(trace, 0, "request", due, time.Since(due))
		tr.record(trace, root, "client.wait", due, sendAt.Sub(due))
		h := tr.record(trace, root, "http.solve", sendAt, recv.Sub(sendAt))
		tr.derive(h, "server.queue", out.rep.QueuedMS)
		tr.derive(h, "server.handle", out.rep.ElapsedMS-out.rep.QueuedMS)
		// The benchmark's own parse and canonicalization of what it sent,
		// the work the server does first on every request.
		tp := time.Now()
		script, err := smtlib.Parse(r.text)
		tc := time.Now()
		tr.record(trace, root, "smtlib.parse", tp, tc.Sub(tp))
		if err == nil {
			if _, err := smtlib.Canonicalize(script.Problem); err == nil {
				tr.record(trace, root, "smtlib.canon", tc, time.Since(tc))
			}
		}
		if out.valMS > 0 {
			tr.derive(root, "strcon.validate", out.valMS)
		}
	}
	return out
}

// checkReply compares the verdict with the planted one and re-checks
// a SAT answer: the canonical witness is moved onto the benchmark's
// own parse and evaluated, and the model by declared name must agree
// with it.
func checkReply(r *streamReq, out *outcome) {
	want := r.expected
	switch out.rep.Status {
	case "sat":
		if want == bench.ExpectUnsat {
			out.failed = "sat on a planted-unsat instance"
			return
		}
	case "unsat":
		if want == bench.ExpectSat {
			out.failed = "unsat on a planted-sat instance"
		}
		out.decided = true
		return
	default:
		return
	}
	out.decided = true
	if out.rep.Witness == nil || out.rep.Model == nil {
		out.failed = "sat answer without a witness and a model"
		return
	}
	w := &smtlib.Witness{Str: out.rep.Witness.Str}
	for _, x := range out.rep.Witness.Int {
		v, ok := new(big.Int).SetString(x, 10)
		if !ok {
			out.failed = "witness integer is not decimal: " + x
			return
		}
		w.Int = append(w.Int, v)
	}
	a := r.canon.Assignment(w)
	if a == nil {
		out.failed = "witness does not fit the problem's canonical form"
		return
	}
	tv := time.Now()
	ok := r.check.Problem.Eval(a)
	out.valMS = ms(time.Since(tv))
	if !ok {
		out.failed = "sat model fails strcon.Eval on the benchmark's own parse"
		return
	}
	for name, v := range r.check.StrVars {
		if got, ok := out.rep.Model.Strings[name]; !ok || got != a.Str[v] {
			out.failed = "model value of " + name + " disagrees with the witness"
			return
		}
	}
	for name, v := range r.check.IntVars {
		if got, ok := out.rep.Model.Ints[name]; !ok || got != a.Int.Value(v).String() {
			out.failed = "model value of " + name + " disagrees with the witness"
			return
		}
	}
}

// openLoop sends the stream on its Poisson schedule, whatever the
// server's state, and waits for every answer.
func openLoop(stream []streamReq, c *client, tr *tracer) []outcome {
	outs := make([]outcome, len(stream))
	var wg sync.WaitGroup
	start := time.Now()
	for i := range stream {
		due := start.Add(time.Duration(stream[i].dueMS * float64(time.Millisecond)))
		time.Sleep(time.Until(due))
		wg.Add(1)
		go func(i int, due time.Time) { //lint:nocontain — the client side runs no solver code
			defer wg.Done()
			outs[i] = c.send(&stream[i], due, tr)
		}(i, due)
	}
	wg.Wait()
	return outs
}

// closedLoop sends reqs from callers callers, each sending its next
// request when the previous answer arrives, to a fresh deployment (so
// cold problems are cold again). It returns the outcomes and the
// loop's wall time.
func closedLoop(routed bool, reqs []*streamReq, callers int) ([]outcome, time.Duration, error) {
	st, err := startStack(routed)
	if err != nil {
		return nil, 0, err
	}
	c := newClient(st.url)
	outs := make([]outcome, len(reqs))
	var mu sync.Mutex
	k := 0
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < callers; w++ {
		wg.Add(1)
		go func() { //lint:nocontain — the client side runs no solver code
			defer wg.Done()
			for {
				mu.Lock()
				j := k
				k++
				mu.Unlock()
				if j >= len(reqs) {
					return
				}
				outs[j] = c.send(reqs[j], time.Now(), nil)
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	c.close()
	st.close()
	return outs, wall, nil
}

// getJSON fetches one stats endpoint.
func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return fmt.Errorf("GET %s: %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("GET %s: %w", url, err)
	}
	return nil
}

// serveRun collects what the epochs of a serve run measured.
type serveRun struct {
	epochs  []*epoch
	open    []outcome   // every epoch's open-loop outcomes
	cold    [][]outcome // the cold passes
	sat     []satLoop
	cpu     time.Duration // process CPU of every measured phase
	warmup  time.Duration
	warmErr []string // failed checks of the warm-up solves
	stats   []serverStats
	metrics []map[string]float64 // GET /metrics of every server
	router  *routerStats
}

// epoch is what one epoch measured.
type epoch struct {
	open []outcome
}

// satLoop is one saturation closed loop.
type satLoop struct {
	outs []outcome
	wall time.Duration
}

func benchServe(rep *report, workload string, seed int64, dur time.Duration, tr *tracer) error {
	routed := workload == "routed"
	perSuite := int(math.Max(1, math.Round(problemsPerSuitePerSecond*dur.Seconds())))
	build := func() (*serveSetup, error) {
		s := &serveSetup{probs: servePool(perSuite)}
		for e := 0; e < serveSatLoops; e++ {
			stream, err := buildStream(s.probs, seed*serveSatLoops+int64(e))
			if err != nil {
				return nil, err
			}
			s.streams = append(s.streams, stream)
		}
		// One problem per canonical form, the first in pool order: the
		// others would be cache hits, and which of them came first
		// would change with the order.
		byName := map[string]*streamReq{}
		for i := range s.streams[0] {
			if r := &s.streams[0][i]; r.kind == kindCold {
				byName[r.name] = r
			}
		}
		var cold []*streamReq
		seen := map[string]bool{}
		for _, p := range s.probs {
			if r := byName[p.name]; !seen[r.canon.Hash] {
				seen[r.canon.Hash] = true
				cold = append(cold, r)
			}
		}
		rng := rand.New(rand.NewSource(seed))
		for k := 0; k < serveColdPasses; k++ {
			order := make([]*streamReq, len(cold))
			for i, j := range rng.Perm(len(cold)) {
				order[i] = cold[j]
			}
			s.coldPasses = append(s.coldPasses, order)
		}
		st, err := startStack(routed)
		if err != nil {
			return nil, err
		}
		s.stack = st
		return s, nil
	}
	s, setupS, err := timeSetup(build, func(old *serveSetup) { old.stack.close() })
	if err != nil {
		return err
	}

	// Fill the solver's process-wide template caches in a fixed order,
	// as a long-running service has them, so the measured solves do not
	// depend on which seeded order filled them. The warm-up answers are
	// checked like every other.
	run := &serveRun{}
	w0 := time.Now()
	for _, p := range s.probs {
		script, err := smtlib.Parse(p.text)
		if err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
		check, err := smtlib.Parse(p.text)
		if err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
		res := core.SolveCtx(script.Problem, core.Options{}, engine.WithTimeout(serveTimeoutMS*time.Millisecond))
		if f, _ := checkSolve(p.expected, script, check, res); f != "" {
			run.warmErr = append(run.warmErr, "warm-up: "+p.name+": "+f)
		}
	}
	run.warmup = time.Since(w0)

	cpu0 := cpuTime()
	for e, stream := range s.streams[:serveEpochs] {
		st := s.stack
		if e > 0 {
			if st, err = startStack(routed); err != nil {
				return err
			}
		}
		ep := &epoch{}
		run.epochs = append(run.epochs, ep)
		if err := openEpoch(run, ep, st, stream, tr); err != nil {
			return err
		}
	}
	// Saturation: serveConns callers send a whole stream to a fresh
	// deployment.
	for _, stream := range s.streams {
		all := make([]*streamReq, len(stream))
		for i := range stream {
			all[i] = &stream[i]
		}
		outs, wall, err := closedLoop(routed, all, serveConns)
		if err != nil {
			return err
		}
		run.sat = append(run.sat, satLoop{outs, wall})
	}
	// Time to a verdict on each canonically distinct problem: one
	// caller sends them, in a seeded order, to a fresh deployment.
	for _, cold := range s.coldPasses {
		outs, _, err := closedLoop(routed, cold, 1)
		if err != nil {
			return err
		}
		run.cold = append(run.cold, outs)
	}
	run.cpu = cpuTime() - cpu0
	serveMetrics(rep, s, run, setupS, tr)
	return nil
}

// openEpoch sends one stream open loop to st, reads the servers' and
// router's statistics, and tears st down.
func openEpoch(run *serveRun, ep *epoch, st *stack, stream []streamReq, tr *tracer) error {
	defer st.close()
	c := newClient(st.url)
	ep.open = openLoop(stream, c, tr)
	run.open = append(run.open, ep.open...)
	c.close()
	for _, addr := range st.shards {
		var ss serverStats
		if err := getJSON("http://"+addr+"/stats", &ss); err != nil {
			return err
		}
		run.stats = append(run.stats, ss)
		var mt map[string]float64
		if err := getJSON("http://"+addr+"/metrics", &mt); err != nil {
			return err
		}
		run.metrics = append(run.metrics, mt)
	}
	if st.router != nil {
		var rs routerStats
		if err := getJSON(st.url+"/stats", &rs); err != nil {
			return err
		}
		if run.router == nil {
			run.router = &routerStats{}
		}
		run.router.Retries += rs.Retries
		run.router.Failovers += rs.Failovers
		run.router.Hedges.Launched += rs.Hedges.Launched
		run.router.Hedges.Won += rs.Hedges.Won
	}
	return nil
}

// serveMetrics fills the report of a serve run. Latency, SLO and
// decided share come from each epoch's open loop, saturation from each
// closed loop; the run reports the median over epochs and loops. An
// epoch's figures hinge on where its few slow solves fall, on what
// arrives behind them and on the router's hedging; the median keeps
// one unlucky epoch from setting the run's. CPU is the process's over
// every measured phase, so it spans all the hedging decisions of the
// run. Verdict times are per
// problem: the median of its cold-pass round trips over the epochs,
// then the percentiles and the sum over the problems the service
// solved. A refused request (503 or 429) counts in failed and misses
// the latency limit; it is not a wrong answer. Per-layer metrics come
// from the responses and the servers' and router's statistics.
func serveMetrics(rep *report, s *serveSetup, run *serveRun, setupS float64, tr *tracer) {
	rep.Extra = map[string]float64{"warmup_s": run.warmup.Seconds()}
	failed, refused, attempted, coldHits := len(run.warmErr), 0, len(s.probs), 0
	rep.Failures = append(rep.Failures, run.warmErr...)
	kinds := map[string]int{}
	var lag []float64
	count := func(phase string, o outcome) bool {
		switch {
		case o.refused:
			failed++
			refused++
		case o.failed != "":
			failed++
			rep.Failures = append(rep.Failures, phase+o.r.name+": "+o.failed)
		default:
			return true
		}
		return false
	}
	per := map[string][]float64{}
	var latAll []float64 // every epoch's answered open-loop requests
	coldRTT, coldDecided := map[string][]float64{}, map[string]int{}
	for _, pass := range run.cold {
		attempted += len(pass)
		for _, o := range pass {
			if !count("cold pass: ", o) {
				continue
			}
			// A cache hit is no verdict time. The passes send one problem
			// per canonical form, so none is expected; the report counts
			// them.
			if o.rep.Cached {
				coldHits++
				continue
			}
			coldRTT[o.r.name] = append(coldRTT[o.r.name], o.rttMS)
			if o.decided {
				coldDecided[o.r.name]++
			}
		}
	}
	for _, sl := range run.sat {
		attempted += len(sl.outs)
		settled := 0
		for _, o := range sl.outs {
			if count("closed loop: ", o) && o.decided {
				settled++
			}
		}
		per["saturation_rps"] = append(per["saturation_rps"], float64(settled)/sl.wall.Seconds())
	}
	for i, ep := range run.epochs {
		attempted += len(ep.open)
		var lat []float64
		decided, within := 0, 0
		for _, o := range ep.open {
			kinds[o.r.kind]++
			lag = append(lag, o.lagMS)
			if !count("", o) {
				continue
			}
			lat = append(lat, o.latencyMS)
			latAll = append(latAll, o.latencyMS)
			if o.decided {
				decided++
				if o.latencyMS <= serveSLOMS {
					within++
				}
			}
		}
		n := float64(len(ep.open))
		for name, v := range map[string]float64{
			"decided_share":    float64(decided) / n,
			"latency_ms.p50":   quantile(lat, 0.50),
			"within_slo_share": float64(within) / n,
		} {
			per[name] = append(per[name], v)
			rep.Extra[fmt.Sprintf("epoch%d.%s", i, name)] = v
		}
	}
	rep.Extra["latency_ms.p99"] = quantile(latAll, 0.99)
	var verdict []float64
	for _, p := range s.probs {
		if xs := coldRTT[p.name]; len(xs) > 0 {
			verdict = append(verdict, median(xs))
			rep.Instances = append(rep.Instances, instanceStat{Name: p.name, Solves: len(xs),
				Decided: coldDecided[p.name], MedianMS: median(xs), Expected: p.expected.String()})
		}
	}
	rep.Samples = map[string]int{"epochs": len(run.epochs), "distinct_problems": len(s.probs),
		"open_loop_requests": len(run.open), "cold_pass_cache_hits": coldHits, "solved_problems": len(verdict),
		"refused": refused, "cold": kinds[kindCold], "repeat": kinds[kindRepeat], "dup": kinds[kindDup]}
	lagP99 := quantile(lag, 0.99)
	rep.OpenLoop = &openLoopCheck{LagP99MS: lagP99, BoundMS: lagBoundMS, Valid: lagP99 <= lagBoundMS}
	if !rep.OpenLoop.Valid {
		fmt.Fprintf(os.Stderr, "perfbench: open loop INVALID: generator lag p99 %.2f ms exceeds %d ms\n", lagP99, lagBoundMS)
	}
	vals := map[string]float64{"setup_s": setupS, "peak_rss_mb": peakRSSMB(), "cpu_s": run.cpu.Seconds(),
		"verdict_ms.p50": quantile(verdict, 0.50), "verdict_ms.p95": quantile(verdict, 0.95),
		"verdict_total_s": sum(verdict) / 1000}
	for name, vs := range per {
		vals[name] = median(vs)
	}
	m := withUnits(vals)
	rep.Result = result{Correct: len(rep.Failures) == 0, Attempted: attempted, Failed: failed, Metrics: m}
	if tr != nil {
		rep.Result.Metrics = serveLayers(rep, run, tr)
		keepTraced(rep, m)
	}
}

// serveLayers computes the per-layer metrics of a traced serve run.
// Solver layer times are means per worker solve, read from the merged
// statistics tree every server keeps (GET /stats); counters are run
// totals; rejections and failed revalidations come from GET /metrics.
func serveLayers(rep *report, run *serveRun, tr *tracer) map[string]metric {
	outs, stats, rs := run.open, run.stats, run.router
	m := layerMetrics(rep)
	self := tr.selfTimes()
	var queued, overhead, lat, cold, cached, coalesced, val []float64
	n200, nCached, nCoalesced, nPeer, solved, gateDecided := 0, 0, 0, 0, 0, 0
	sent, within := map[string]int{}, map[string]int{}
	for _, o := range outs {
		sent[o.r.kind]++
		if o.code != http.StatusOK || o.failed != "" {
			continue
		}
		if o.decided && o.latencyMS <= serveSLOMS {
			within[o.r.kind]++
		}
		lat = append(lat, o.latencyMS)
		n200++
		overhead = append(overhead, o.rttMS-o.rep.ElapsedMS)
		if o.valMS > 0 {
			val = append(val, o.valMS)
		}
		if o.r.kind == kindCold {
			cold = append(cold, o.latencyMS)
		}
		switch {
		case o.rep.Cached:
			nCached++
			cached = append(cached, o.latencyMS)
			if o.rep.PeerFilled {
				nPeer++
			}
		case o.rep.Coalesced:
			nCoalesced++
			coalesced = append(coalesced, o.latencyMS)
		default:
			solved++
			queued = append(queued, o.rep.QueuedMS)
			if o.rep.Status == "unsat" && o.rep.Rounds == 0 {
				gateDecided++
			}
		}
	}
	set(m, "server.queue_wait_ms.p50", quantile(queued, 0.50))
	set(m, "server.queue_wait_ms.p99", quantile(queued, 0.99))
	set(m, "server.overhead_ms.p50", quantile(overhead, 0.50))
	set(m, "server.cache_hit_share", ratio(float64(nCached), float64(n200)))
	set(m, "server.coalesced_share", ratio(float64(nCoalesced), float64(n200)))
	// Pooled over the epochs, so the p99 has about ten samples beyond
	// it; it is not steady enough across seeds to carry a bound.
	set(m, "latency_ms.p99", quantile(lat, 0.99))
	set(m, "within_slo_share.cold", ratio(float64(within[kindCold]), float64(sent[kindCold])))
	set(m, "within_slo_share.repeat", ratio(float64(within[kindRepeat]), float64(sent[kindRepeat])))
	set(m, "latency_ms.cold.p50", quantile(cold, 0.50))
	set(m, "latency_ms.cached.p50", quantile(cached, 0.50))
	set(m, "latency_ms.coalesced.p50", quantile(coalesced, 0.50))
	set(m, "smtlib.parse_ms", mean(self["smtlib.parse"]))
	set(m, "smtlib.canon_ms", mean(self["smtlib.canon"]))
	set(m, "validate.ms", mean(val))
	set(m, "gate.decided_share", ratio(float64(gateDecided), float64(solved)))
	set(m, "gen.lag_ms.p99", rep.OpenLoop.LagP99MS)

	var tot ledger
	var solves, totalNS int64
	for _, ss := range stats {
		solves += ss.Requests.Sat + ss.Requests.Unsat + ss.Requests.Unknown + ss.Requests.Timeouts
		if ss.Engine == nil {
			continue
		}
		totalNS += ss.Engine.TimersNS["time.total"]
		tot.add(ledgerOf(ss.Engine))
	}
	var revalFailures, rejected float64
	for _, mt := range run.metrics {
		revalFailures += mt["requests_reval_failures_total"]
		rejected += mt["requests_rejected_queue_total"] + mt["requests_rejected_drain_total"] +
			mt["requests_rejected_tenant_total"]
	}
	set(m, "server.reval_failures", revalFailures)
	set(m, "server.rejected", rejected)
	if f := tot.check(ns(totalNS)); f != "" {
		rep.Failures = append(rep.Failures, "server statistics: "+f)
	}
	n := float64(solves)
	set(m, "core.solve_ms", ratio(ns(totalNS), n))
	set(m, "gate.ms", ratio(tot.gateMS, n))
	set(m, "flatten.ms", ratio(tot.flattenMS, n))
	set(m, "lia.presolve_ms", ratio(tot.liaPresolveMS, n))
	set(m, "lia.search_ms", ratio(tot.liaSearchMS, n))
	set(m, "solve.unattributed_ms", ratio(tot.unattributed(ns(totalNS)), n))
	setCounts(m, tot, 1)

	if rs != nil {
		var hop []float64
		for _, o := range outs {
			if o.code == http.StatusOK && o.failed == "" {
				hop = append(hop, o.rttMS-o.rep.ElapsedMS)
			}
		}
		set(m, "cluster.hop_ms.p50", quantile(hop, 0.50))
		set(m, "cluster.hedges_launched", float64(rs.Hedges.Launched))
		set(m, "cluster.hedges_won", float64(rs.Hedges.Won))
		set(m, "cluster.failovers", float64(rs.Failovers))
		set(m, "cluster.retries", float64(rs.Retries))
		set(m, "cluster.peer_fill_share", ratio(float64(nPeer), float64(n200)))
	}
	return m
}

// serverStats mirrors the parts of a server's GET /stats the
// benchmark reads.
type serverStats struct {
	Requests struct {
		Sat      int64 `json:"sat"`
		Unsat    int64 `json:"unsat"`
		Unknown  int64 `json:"unknown"`
		Timeouts int64 `json:"timeouts"`
	} `json:"requests"`
	Engine *engine.Snapshot `json:"engine"`
}

// routerStats mirrors the parts of a router's GET /stats the benchmark
// reads.
type routerStats struct {
	Retries   int64 `json:"retries"`
	Failovers int64 `json:"failovers"`
	Hedges    struct {
		Launched int64 `json:"launched"`
		Won      int64 `json:"won"`
	} `json:"hedges"`
}

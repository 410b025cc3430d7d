package cluster

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/smtlib"
)

// Config sizes the router. The zero value of every field selects a
// sensible default (see withDefaults); Shards is required.
type Config struct {
	// Shards is the ordered backend address list ("host:port"). Every
	// process of the cluster — router and shards alike — must be handed
	// the same list in the same order, so ring assignment is
	// byte-identical everywhere.
	Shards []string
	// Local is the degraded-mode fallback: when no shard is reachable
	// the request is served by this handler in-process (cmd/trauserve
	// passes its local server.Server). nil disables degradation — an
	// unreachable cluster answers 503.
	Local http.Handler
	// Replicas is the virtual-node count per shard on the ring
	// (default 64).
	Replicas int
	// ProbeInterval and ProbeTimeout shape the periodic /healthz
	// probes feeding each shard's breaker (defaults 250ms and 1s).
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	// BreakerThreshold consecutive transport failures open a shard's
	// circuit; BreakerCooldown is the open->half-open wait (defaults 3
	// and 2s).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// MaxRetries bounds per-shard retries on transport errors;
	// RetryBase seeds the exponential backoff (defaults 2 and 50ms).
	MaxRetries int
	RetryBase  time.Duration
	// RequestTimeout bounds one routed request end to end — all
	// retries and failovers together (default 60s,
	// comfortably above the shard-side max solve budget). HopTimeout
	// bounds a single attempt against one shard (default
	// RequestTimeout), so a black-holed shard costs one hop's wait,
	// not the whole request budget. MaxRequestBytes bounds a routed
	// body (default 16 MiB, the shard-side batch bound).
	RequestTimeout  time.Duration
	HopTimeout      time.Duration
	MaxRequestBytes int64
	// Fault is the network-boundary fault schedule (injected connect
	// failures, stalls, mid-body cuts at the k-th hop). Health probes
	// deliberately bypass it so chaos sweeps count request hops
	// deterministically. nil injects nothing.
	Fault *fault.Schedule
}

func (c Config) withDefaults() Config {
	if c.Replicas <= 0 {
		c.Replicas = defaultReplicas
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 250 * time.Millisecond
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = time.Second
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 2 * time.Second
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = 0
	} else if c.MaxRetries == 0 {
		c.MaxRetries = 2
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 50 * time.Millisecond
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 60 * time.Second
	}
	if c.HopTimeout <= 0 {
		c.HopTimeout = c.RequestTimeout
	}
	if c.MaxRequestBytes <= 0 {
		c.MaxRequestBytes = 16 << 20
	}
	return c
}

// shard is the router's per-backend state: the breaker guarding it,
// the last health-probe verdict, and its traffic counters.
type shard struct {
	addr    string
	breaker *Breaker
	healthy atomic.Bool

	probesOK      atomic.Int64
	probesFail    atomic.Int64
	forwards      atomic.Int64
	transportErrs atomic.Int64
}

// Router fronts a shard cluster: it routes each request to the owner
// shard of its canonical problem hash and wraps every hop in the
// robustness stack — breaker, bounded retries, failover, local
// degradation. Create with New, expose via net/http, stop with
// Close.
type Router struct {
	cfg    Config
	ring   *Ring
	client *Client
	shards map[string]*shard
	local  http.Handler
	mux    *http.ServeMux

	draining atomic.Bool
	stop     chan struct{}
	probers  sync.WaitGroup

	ctr struct {
		routed      atomic.Int64 // requests forwarded to a shard
		uncanonical atomic.Int64 // routed by body hash (no canonical form)
		retries     atomic.Int64 // transport-error retries across all hops
		failovers   atomic.Int64 // attempts moved past a shard: transport failure or open breaker
		localSolves atomic.Int64 // degraded-mode local fallbacks
		unroutable  atomic.Int64 // no shard and no local handler
	}

	start time.Time
}

// New builds a router over cfg.Shards and starts its health probers.
// It returns once every shard has answered (or failed) its first
// probe, which takes at most ProbeTimeout.
func New(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Shards) == 0 {
		return nil, errors.New("cluster: router needs at least one shard")
	}
	seen := map[string]bool{}
	for _, s := range cfg.Shards {
		if s == "" || seen[s] {
			return nil, fmt.Errorf("cluster: empty or duplicate shard address %q", s)
		}
		seen[s] = true
	}
	rt := &Router{
		cfg:    cfg,
		ring:   NewRing(cfg.Shards, cfg.Replicas),
		client: NewClient(cfg.HopTimeout, cfg.MaxRetries, cfg.RetryBase, cfg.Fault),
		shards: make(map[string]*shard),
		local:  cfg.Local,
		stop:   make(chan struct{}),
		start:  time.Now(),
	}
	for _, addr := range cfg.Shards {
		rt.shards[addr] = &shard{
			addr:    addr,
			breaker: NewBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown),
		}
	}
	rt.mux = http.NewServeMux()
	rt.mux.HandleFunc("POST /solve", rt.handleSolve)
	rt.mux.HandleFunc("POST /batch", rt.handleBatch)
	rt.mux.HandleFunc("GET /jobs/{id}", rt.handleJob)
	rt.mux.HandleFunc("GET /stats", rt.handleStats)
	rt.mux.HandleFunc("GET /healthz", rt.handleHealthz)
	// The first probe round finishes before New returns, so routing and
	// /stats never see a shard that was never probed: every shard is
	// healthy or unhealthy on evidence from the start.
	var probed sync.WaitGroup
	probed.Add(len(cfg.Shards))
	for _, addr := range cfg.Shards {
		sh := rt.shards[addr]
		rt.probers.Add(1)
		go func() {
			defer rt.probers.Done()
			ticker := time.NewTicker(rt.cfg.ProbeInterval)
			defer ticker.Stop()
			fault.Contain("cluster.probe", func() { rt.probe(sh) })
			probed.Done()
			for { //lint:nopoll probe loop runs for the router's lifetime and exits when rt.stop closes; it runs no solver code and holds no engine context
				select {
				case <-rt.stop:
					return
				case <-ticker.C:
				}
				fault.Contain("cluster.probe", func() { rt.probe(sh) })
			}
		}()
	}
	probed.Wait()
	return rt, nil
}

func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rt.mux.ServeHTTP(w, r)
}

// Close stops the health probers and marks the router draining (new
// requests answer 503). In-flight forwards finish on their own
// contexts; call after the http.Server has shut down.
func (rt *Router) Close() {
	if rt.draining.CompareAndSwap(false, true) {
		close(rt.stop)
	}
	rt.probers.Wait()
}

// probe performs one health check and feeds the shard's breaker, so a
// dead shard opens its circuit within threshold*interval even with no
// traffic, and a recovered one closes it again without waiting for a
// half-open request probe.
func (rt *Router) probe(sh *shard) {
	ctx, cancel := context.WithTimeout(context.Background(), rt.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+sh.addr+"/healthz", nil)
	if err != nil {
		return // contract: the URL is built from a validated address
	}
	resp, err := probeClient.Do(req)
	ok := err == nil
	if ok {
		// A draining shard answers 503: reachable, but about to exit —
		// treat it as unhealthy so traffic fails over before the drain.
		ok = resp.StatusCode == http.StatusOK
		_, _ = io.Copy(io.Discard, resp.Body) // probe body is discarded
		_ = resp.Body.Close()
	}
	sh.healthy.Store(ok)
	if ok {
		sh.probesOK.Add(1)
		sh.breaker.Success()
	} else {
		sh.probesFail.Add(1)
		sh.breaker.Failure()
	}
}

// probeClient is the probers' transport: plain, outside the fault
// boundary, so chaos schedules count request hops deterministically.
var probeClient = &http.Client{}

// routeKey extracts the routing key for a /solve body: the canonical
// problem hash when the problem canonicalizes (so every alpha-variant
// of a problem lands on — and fills the cache of — one owner shard),
// the body hash otherwise (stable, but only syntactically sticky).
func (rt *Router) routeKey(body []byte) (string, bool) {
	var req struct {
		SMTLIB string `json:"smtlib"`
	}
	if err := json.Unmarshal(body, &req); err == nil && req.SMTLIB != "" {
		if script, err := smtlib.Parse(req.SMTLIB); err == nil {
			if canon, err := smtlib.Canonicalize(script.Problem); err == nil {
				return canon.Hash, true
			}
		}
	}
	return bodyHash(body), false
}

// bodyHash is the routing key of a body with no canonical form.
func bodyHash(body []byte) string {
	sum := sha256.Sum256(body)
	return hex.EncodeToString(sum[:])
}

// readBody drains a routed request's body under the router bound.
func (rt *Router) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, rt.cfg.MaxRequestBytes))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			rt.writeError(w, http.StatusRequestEntityTooLarge,
				"request body exceeds %d bytes", rt.cfg.MaxRequestBytes)
		} else {
			rt.writeError(w, http.StatusBadRequest, "reading body: %v", err)
		}
		return nil, false
	}
	return body, true
}

func (rt *Router) handleSolve(w http.ResponseWriter, r *http.Request) {
	if rt.draining.Load() {
		rt.rejectDraining(w)
		return
	}
	body, ok := rt.readBody(w, r)
	if !ok {
		return
	}
	key, canonical := rt.routeKey(body)
	if !canonical {
		rt.ctr.uncanonical.Add(1)
	}
	res, _, err := rt.walk(r, "/solve", key, body)
	switch {
	case err != nil:
		rt.writeError(w, http.StatusGatewayTimeout, "cluster forward: %v", err)
	case res == nil:
		// Every breaker is open or every shard failed: degrade rather
		// than queueing on dead sockets.
		rt.serveLocal(w, r, body)
	default:
		rt.relay(w, res)
	}
}

func (rt *Router) handleBatch(w http.ResponseWriter, r *http.Request) {
	if rt.draining.Load() {
		rt.rejectDraining(w)
		return
	}
	body, ok := rt.readBody(w, r)
	if !ok {
		return
	}
	// Batches route by body hash: instances inside one batch own
	// different canonical hashes, and the job the 202 names lives on
	// whichever shard accepted it.
	res, addr, err := rt.walk(r, "/batch", bodyHash(body), body)
	switch {
	case err != nil:
		rt.writeError(w, http.StatusGatewayTimeout, "cluster forward: %v", err)
	case res == nil:
		// Batch has no local degradation: job state must outlive the
		// request, and the router holds none. Reject with backoff
		// instead.
		rt.ctr.unroutable.Add(1)
		w.Header().Set("Retry-After", "1")
		rt.writeError(w, http.StatusServiceUnavailable, "no shard reachable for batch work")
	case res.Status == http.StatusAccepted:
		// Rewrite the job id so /jobs polls route back to this shard.
		rt.relayBatchAccepted(w, res, addr)
	default:
		rt.relay(w, res)
	}
}

// handleJob routes GET /jobs/<id>: the router prefixes every batch job
// id with its shard ("s2!job-7"), so polls go straight back to the
// shard that owns the job's state.
func (rt *Router) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	shardIdx, rest, ok := splitJobID(id)
	if !ok || shardIdx >= len(rt.cfg.Shards) {
		rt.writeError(w, http.StatusNotFound, "no such job %q", id)
		return
	}
	addr := rt.cfg.Shards[shardIdx]
	sh := rt.shards[addr]
	ctx, cancel := context.WithTimeout(r.Context(), rt.cfg.RequestTimeout)
	defer cancel()
	res, retries, err := rt.client.DoRetry(ctx, http.MethodGet, "http://"+addr+"/jobs/"+rest, nil, nil)
	rt.ctr.retries.Add(int64(retries))
	if err != nil {
		sh.breaker.Failure()
		sh.transportErrs.Add(1)
		rt.writeError(w, http.StatusBadGateway,
			"shard %s unreachable (job state lives there): %v", addr, err)
		return
	}
	sh.breaker.Success()
	rt.relay(w, res)
}

// jobIDSep joins the shard index and the shard-local job id. The
// shard's own ids are "job-<n>", so any separator not in that alphabet
// works; "!" also survives URL paths unescaped.
const jobIDSep = "!"

func routedJobID(shardIdx int, id string) string {
	return "s" + strconv.Itoa(shardIdx) + jobIDSep + id
}

func splitJobID(id string) (shardIdx int, rest string, ok bool) {
	if !strings.HasPrefix(id, "s") {
		return 0, "", false
	}
	i := strings.Index(id, jobIDSep)
	if i < 0 {
		return 0, "", false
	}
	n, err := strconv.Atoi(id[1:i])
	if err != nil || n < 0 {
		return 0, "", false
	}
	return n, id[i+len(jobIDSep):], true
}

// walk sends a routed POST down the ring, one shard at a time: owner
// first, open circuits skipped, transport errors retried then failed
// over to the next successor. Exactly one shard works on the request
// at any moment — a slow owner answers or the request times out, and
// no duplicate is sent. It returns the first shard reply and the
// shard's address; nil with a nil error when every shard was
// open-circuit or failed; an error when the request context ended
// (the client left or RequestTimeout ran out).
func (rt *Router) walk(r *http.Request, path, key string, body []byte) (*Result, string, error) {
	ctx, cancel := context.WithTimeout(r.Context(), rt.cfg.RequestTimeout)
	defer cancel()
	routed := false
	for _, addr := range rt.ring.Successors(key, 0) {
		sh := rt.shards[addr]
		if !sh.breaker.Allow() {
			// Shedding an open-circuit shard moves the request down
			// the ring just like a live transport failure would.
			rt.ctr.failovers.Add(1)
			continue
		}
		if !routed {
			routed = true
			rt.ctr.routed.Add(1)
		} else {
			rt.ctr.failovers.Add(1)
		}
		var res *Result
		var err error
		if d := fault.Contain("cluster.forward", func() {
			var retries int
			res, retries, err = rt.client.DoRetry(ctx, http.MethodPost, "http://"+addr+path, r.Header.Clone(), body)
			rt.ctr.retries.Add(int64(retries))
		}); d != nil {
			err = d
		}
		sh.forwards.Add(1)
		if err == nil {
			sh.breaker.Success()
			return res, addr, nil
		}
		// A cancellation with the request context dead means the
		// CLIENT went away or the request budget ran out — don't blame
		// the shard.
		if ctx.Err() == nil || !errors.Is(err, context.Canceled) {
			sh.breaker.Failure()
			sh.transportErrs.Add(1)
		}
		if ctx.Err() != nil {
			return nil, "", err
		}
	}
	return nil, "", nil
}

// relayBatchAccepted rewrites the shard's job id with the shard prefix
// before relaying the 202.
func (rt *Router) relayBatchAccepted(w http.ResponseWriter, res *Result, addr string) {
	var acc struct {
		JobID     string `json:"job_id"`
		Tenant    string `json:"tenant"`
		Instances int    `json:"instances"`
	}
	if err := json.Unmarshal(res.Body, &acc); err != nil {
		rt.relay(w, res) // unknown shape: relay verbatim
		return
	}
	for i, s := range rt.cfg.Shards {
		if s == addr {
			acc.JobID = routedJobID(i, acc.JobID)
			break
		}
	}
	rt.writeJSON(w, res.Status, acc)
}

// serveLocal is the bottom of the degradation ladder: solve in-process
// under the local server's governor, so availability falls back to
// single-node behavior instead of erroring.
func (rt *Router) serveLocal(w http.ResponseWriter, r *http.Request, body []byte) {
	if rt.local == nil {
		rt.ctr.unroutable.Add(1)
		w.Header().Set("Retry-After", "1")
		rt.writeError(w, http.StatusServiceUnavailable, "no shard reachable and no local fallback")
		return
	}
	rt.ctr.localSolves.Add(1)
	nr := r.Clone(r.Context())
	nr.Body = io.NopCloser(bytes.NewReader(body))
	nr.ContentLength = int64(len(body))
	rt.local.ServeHTTP(w, nr)
}

// relay copies a shard response through to the client.
func (rt *Router) relay(w http.ResponseWriter, res *Result) {
	for _, h := range []string{"Content-Type", "Retry-After"} {
		if v := res.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(res.Status)
	_, _ = w.Write(res.Body) // the connection may be gone; nowhere to report
}

func (rt *Router) rejectDraining(w http.ResponseWriter) {
	w.Header().Set("Retry-After", "1")
	rt.writeError(w, http.StatusServiceUnavailable, "router is shutting down")
}

func (rt *Router) writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // the connection may be gone; nowhere to report
}

func (rt *Router) writeError(w http.ResponseWriter, code int, format string, a ...any) {
	rt.writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, a...)})
}

// Stats is the router's GET /stats body: the cluster-wide view — the
// robustness counters and one entry per shard with breaker state, health, traffic, and (when reachable) the
// shard's own /stats snapshot embedded verbatim.
type Stats struct {
	UptimeMS    float64      `json:"uptime_ms"`
	Routed      int64        `json:"routed"`
	Uncanonical int64        `json:"uncanonical"`
	Retries     int64        `json:"retries"`
	Failovers   int64        `json:"failovers"`
	LocalSolves int64        `json:"local_solves"`
	Unroutable  int64        `json:"unroutable"`
	Shards      []ShardStats `json:"shards"`
}

type ShardStats struct {
	Addr            string          `json:"addr"`
	Healthy         bool            `json:"healthy"`
	Breaker         string          `json:"breaker"`
	ProbesOK        int64           `json:"probes_ok"`
	ProbesFail      int64           `json:"probes_fail"`
	Forwards        int64           `json:"forwards"`
	TransportErrors int64           `json:"transport_errors"`
	Stats           json.RawMessage `json:"stats,omitempty"`
}

// Snapshot assembles the cluster-wide stats. fetch controls whether
// each live shard's own /stats is pulled in (the HTTP handler does;
// tests that only want router counters pass false).
func (rt *Router) Snapshot(fetch bool) Stats {
	st := Stats{
		UptimeMS:    float64(time.Since(rt.start)) / float64(time.Millisecond),
		Routed:      rt.ctr.routed.Load(),
		Uncanonical: rt.ctr.uncanonical.Load(),
		Retries:     rt.ctr.retries.Load(),
		Failovers:   rt.ctr.failovers.Load(),
		LocalSolves: rt.ctr.localSolves.Load(),
		Unroutable:  rt.ctr.unroutable.Load(),
	}
	type fetched struct {
		i   int
		raw json.RawMessage
	}
	var ch chan fetched
	fetching := 0
	if fetch {
		ch = make(chan fetched, len(rt.cfg.Shards))
	}
	for i, addr := range rt.cfg.Shards {
		sh := rt.shards[addr]
		st.Shards = append(st.Shards, ShardStats{
			Addr:            addr,
			Healthy:         sh.healthy.Load(),
			Breaker:         sh.breaker.State().String(),
			ProbesOK:        sh.probesOK.Load(),
			ProbesFail:      sh.probesFail.Load(),
			Forwards:        sh.forwards.Load(),
			TransportErrors: sh.transportErrs.Load(),
		})
		if fetch && sh.healthy.Load() {
			fetching++
			go func(i int, addr string) { //lint:nocontain — one bounded HTTP GET, no solver code
				ctx, cancel := context.WithTimeout(context.Background(), rt.cfg.ProbeTimeout)
				defer cancel()
				req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+addr+"/stats", nil)
				if err != nil {
					ch <- fetched{i, nil}
					return
				}
				resp, err := probeClient.Do(req)
				if err != nil {
					ch <- fetched{i, nil}
					return
				}
				defer resp.Body.Close()
				raw, err := io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes))
				if err != nil || resp.StatusCode != http.StatusOK || !json.Valid(raw) {
					ch <- fetched{i, nil}
					return
				}
				ch <- fetched{i, raw}
			}(i, addr)
		}
	}
	for i := 0; i < fetching; i++ {
		f := <-ch
		st.Shards[f.i].Stats = f.raw
	}
	return st
}

func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	rt.writeJSON(w, http.StatusOK, rt.Snapshot(true))
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status, code := "ok", http.StatusOK
	if rt.draining.Load() {
		status, code = "draining", http.StatusServiceUnavailable
	}
	rt.writeJSON(w, code, map[string]string{"status": status})
}

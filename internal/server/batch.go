package server

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// The async batch API. POST /batch accepts many instances at once and
// answers 202 with a job id; GET /jobs/<id> reports incremental
// per-instance results with settled/pending counts. Batch instances
// run at the low QoS class — they share the cache and dedup-in-flight
// machinery with interactive solves, but never delay them — and debit
// the submitting tenant's budget pool collectively.

// batchRequest is the POST /batch body. TimeoutMS, NoCache, and
// BudgetUnits apply to every instance (an instance may additionally
// opt out of caching for itself).
type batchRequest struct {
	Instances   []batchInstance `json:"instances"`
	TimeoutMS   int64           `json:"timeout_ms,omitempty"`
	NoCache     bool            `json:"no_cache,omitempty"`
	BudgetUnits int64           `json:"budget_units,omitempty"`
}

type batchInstance struct {
	SMTLIB  string `json:"smtlib"`
	NoCache bool   `json:"no_cache,omitempty"`
}

// batchAccepted is the 202 reply to POST /batch.
type batchAccepted struct {
	JobID     string `json:"job_id"`
	Tenant    string `json:"tenant"`
	Instances int    `json:"instances"`
}

// instancePending is the Status of an instance whose solve has not
// finished; every other Status is final.
const instancePending = "pending"

// instanceResult is one instance's slot in a job. Status is "pending"
// until the instance settles; then "sat", "unsat", "unknown", or
// "error" (the instance never solved: parse failure, backlog
// overflow), with the same supporting fields a POST /solve reply
// carries.
type instanceResult struct {
	Index     int          `json:"index"`
	Status    string       `json:"status"`
	Model     *modelJSON   `json:"model,omitempty"`
	Witness   *witnessJSON `json:"witness,omitempty"`
	Canonical string       `json:"canonical_hash,omitempty"`
	Cached    bool         `json:"cached,omitempty"`
	Coalesced bool         `json:"coalesced,omitempty"`
	TimedOut  bool         `json:"timed_out,omitempty"`
	Reason    string       `json:"reason,omitempty"`
	Error     string       `json:"error,omitempty"`
	FaultID   string       `json:"fault_id,omitempty"`
}

// jobResponse is the GET /jobs/<id> body. State is "running" while any
// instance is pending and "done" after; Results always has one entry
// per instance, in submission order.
type jobResponse struct {
	ID        string           `json:"id"`
	Tenant    string           `json:"tenant"`
	State     string           `json:"state"`
	Instances int              `json:"instances"`
	Settled   int              `json:"settled"`
	Pending   int              `json:"pending"`
	Results   []instanceResult `json:"results"`
}

// batchJob tracks one submitted batch. Results settle exactly once:
// concurrent deliveries (a worker finishing versus the drain path
// failing the queue) race benignly, first writer wins.
type batchJob struct {
	id      string
	tenant  string
	created time.Time

	mu      sync.Mutex
	results []instanceResult
	pending int
}

func (b *batchJob) settle(idx int, res instanceResult) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.results[idx].Status != instancePending {
		return
	}
	res.Index = idx
	b.results[idx] = res
	b.pending--
}

func (b *batchJob) snapshot() jobResponse {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := jobResponse{
		ID:        b.id,
		Tenant:    b.tenant,
		State:     "done",
		Instances: len(b.results),
		Settled:   len(b.results) - b.pending,
		Pending:   b.pending,
		Results:   append([]instanceResult(nil), b.results...),
	}
	if b.pending > 0 {
		out.State = "running"
	}
	return out
}

// jobStore retains batch jobs for polling, bounded by cap. When full,
// the oldest completed job is evicted to admit a new one; if every
// retained job is still running, admission fails (the caller answers
// 503) rather than dropping live results.
type jobStore struct {
	mu    sync.Mutex
	cap   int
	jobs  map[string]*batchJob
	order []string // creation order, for deterministic eviction
	seq   int64
}

func newJobStore(cap int) *jobStore {
	return &jobStore{cap: cap, jobs: make(map[string]*batchJob)}
}

// create allocates a job with n pending instances, or reports that the
// store is full of running jobs.
func (st *jobStore) create(tenant string, n int) (*batchJob, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if len(st.jobs) >= st.cap {
		evicted := false
		for i, id := range st.order {
			j := st.jobs[id]
			j.mu.Lock()
			done := j.pending == 0
			j.mu.Unlock()
			if done {
				delete(st.jobs, id)
				st.order = append(st.order[:i], st.order[i+1:]...)
				evicted = true
				break
			}
		}
		if !evicted {
			return nil, false
		}
	}
	st.seq++
	b := &batchJob{
		id:      fmt.Sprintf("job-%d", st.seq),
		tenant:  tenant,
		created: time.Now(),
		results: make([]instanceResult, n),
		pending: n,
	}
	for i := range b.results {
		b.results[i] = instanceResult{Index: i, Status: instancePending}
	}
	st.jobs[b.id] = b
	st.order = append(st.order, b.id)
	return b, true
}

func (st *jobStore) get(id string) *batchJob {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.jobs[id]
}

func (st *jobStore) len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.jobs)
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	s.ctr.activeRequests.Add(1)
	defer s.ctr.activeRequests.Add(-1)

	if s.draining.Load() {
		s.rejectDraining(w)
		return
	}
	var req batchRequest
	if !s.readJSON(w, r, s.cfg.MaxBatchBytes, &req) {
		return
	}
	n := len(req.Instances)
	if n == 0 {
		s.writeError(w, http.StatusBadRequest, "batch has no instances")
		return
	}
	if n > s.cfg.MaxBatchInstances {
		s.writeError(w, http.StatusRequestEntityTooLarge,
			"batch of %d instances exceeds the %d-instance limit", n, s.cfg.MaxBatchInstances)
		return
	}

	tenant := tenantOf(r)
	pool := s.tenantPool(tenant)
	if pool.Dry() {
		s.rejectTenant(w, tenant)
		return
	}
	// Admission is whole-batch: a batch that would overflow the
	// tenant's backlog is rejected up front, with a Retry-After derived
	// from the backlog it observed, rather than accepted and then
	// half-failed instance by instance.
	if backlog := s.sched.tenantBacklog(tenant); backlog+n > s.cfg.BatchBacklog {
		s.ctr.rejectedQueue.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSecs(backlog, s.cfg.Workers)))
		s.writeError(w, http.StatusServiceUnavailable,
			"tenant %q batch backlog full (%d queued)", tenant, backlog)
		return
	}
	bj, ok := s.store.create(tenant, n)
	if !ok {
		w.Header().Set("Retry-After", "1")
		s.writeError(w, http.StatusServiceUnavailable,
			"job store full (%d jobs still running)", s.cfg.MaxJobs)
		return
	}

	timeout := s.clampTimeout(req.TimeoutMS)
	budget := s.clampBudget(req.BudgetUnits)
	for i, inst := range req.Instances {
		s.submitInstance(bj, i, inst.SMTLIB, job{
			class: classBatch, tenant: tenant, noCache: req.NoCache || inst.NoCache,
			timeout: timeout, budget: budget, pool: pool,
		})
	}
	s.ctr.batchJobs.Add(1)
	s.ctr.batchInstances.Add(int64(n))
	s.writeJSON(w, http.StatusAccepted, batchAccepted{JobID: bj.id, Tenant: tenant, Instances: n})
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	// Deliberately not gated on draining: pollers must be able to
	// collect results (including drain-failed ones) until the process
	// exits.
	id := r.PathValue("id")
	bj := s.store.get(id)
	if bj == nil {
		s.writeError(w, http.StatusNotFound, "no such job %q", id)
		return
	}
	s.writeJSON(w, http.StatusOK, bj.snapshot())
}

// submitInstance parses one instance into j and hands it to the
// dispatch ladder, which answers it asynchronously into its slot.
// Parse failures settle the instance immediately — one bad instance
// never fails its batch.
func (s *Server) submitInstance(bj *batchJob, idx int, src string, j job) {
	j.start = time.Now()
	var err error
	if j.script, j.canon, err = s.parse(src); err != nil {
		bj.settle(idx, instanceResult{Status: "error", Error: "parsing problem: " + err.Error()})
		return
	}
	j.reply = func(a answer) {
		switch {
		case errors.Is(a.refused, errSchedDraining):
			s.ctr.batchDrained.Add(1)
			bj.settle(idx, instanceResult{Status: "unknown", Reason: "draining"})
		case a.refused != nil:
			// The whole-batch precheck makes this rare (coalesce
			// fallbacks re-entering a queue that filled meanwhile); the
			// instance fails alone, its batch survives.
			bj.settle(idx, instanceResult{Status: "error", Error: "tenant batch backlog full"})
		default:
			bj.settle(idx, instanceFromResponse(a.resp))
		}
	}
	s.dispatch(&j, 0)
}

// instanceFromResponse converts a rendered verdict into an instance
// slot.
func instanceFromResponse(r solveResponse) instanceResult {
	return instanceResult{
		Status: r.Status, Model: r.Model, Witness: r.Witness,
		Canonical: r.Canonical, Cached: r.Cached, Coalesced: r.Coalesced,
		TimedOut: r.TimedOut, Reason: r.Reason,
		Error: r.Error, FaultID: r.FaultID,
	}
}

package server

import (
	"math/big"
	"net/http"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/smtlib"
)

// This file is the shard side of the distributed verdict cache: the
// GET /cache/<hash> endpoint that hands settled canonical verdicts to
// peers, and the pre-solve peer cache-fill that asks a canonical
// problem's owner shard before spending solver time. Both directions
// obey the cache soundness rule — only settled SAT/UNSAT verdicts
// travel, always in canonical coordinates, and a received witness is
// transported onto the requesting parse and re-validated by the
// concrete evaluator before anything is served or cached. A peer can
// therefore cost this shard a wasted lookup, never a wrong answer.

// handleCacheEntry serves one settled canonical verdict to a peer (or
// any client). Misses and unsettled entries answer 404: "solve it
// yourself" is always a safe reply. A draining shard keeps answering —
// the endpoint reads immutable state and helps peers warm up while
// this shard exits.
func (s *Server) handleCacheEntry(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	v, ok := s.cache.get(hash)
	if !ok {
		s.writeError(w, http.StatusNotFound, "no cached verdict for %q", hash)
		return
	}
	var e cluster.CacheEntry
	switch v.status {
	case core.StatusSat:
		if v.witness == nil {
			s.writeError(w, http.StatusNotFound, "no cached verdict for %q", hash)
			return
		}
		e.Status = "sat"
		e.Str = append([]string{}, v.witness.Str...)
		e.Int = make([]string, len(v.witness.Int))
		for i, n := range v.witness.Int {
			e.Int[i] = n.String()
		}
	case core.StatusUnsat:
		e.Status = "unsat"
	default:
		// The cache only stores settled verdicts; this arm is defensive.
		s.writeError(w, http.StatusNotFound, "no cached verdict for %q", hash)
		return
	}
	s.ctr.peerServed.Add(1)
	s.writeJSON(w, http.StatusOK, e)
}

// peerFill tries to answer a cache miss from the canonical hash's
// owner shard. ok=false means "no usable verdict" for any reason —
// standalone server, we own the hash, owner unreachable or cold, or
// the entry failed re-validation — and the caller falls through to
// solving, which is always available.
func (s *Server) peerFill(r *http.Request, j *job) (solveResponse, bool) {
	if s.cfg.Peers == nil {
		return solveResponse{}, false
	}
	e, err := s.cfg.Peers.Fetch(r.Context(), j.canon.Hash)
	if err != nil {
		s.ctr.peerErrors.Add(1)
		return solveResponse{}, false
	}
	if e == nil {
		s.ctr.peerMisses.Add(1)
		return solveResponse{}, false
	}
	var v verdict
	switch e.Status {
	case "sat":
		wit, ok := witnessFromWire(e)
		if !ok {
			s.ctr.peerErrors.Add(1)
			return solveResponse{}, false
		}
		v = verdict{status: core.StatusSat, witness: wit}
	case "unsat":
		v = verdict{status: core.StatusUnsat}
	default:
		return solveResponse{}, false
	}
	// Same revalidation as a local cache hit: the witness must satisfy
	// THIS request's parse or the entry is worthless here.
	resp, ok := s.renderVerdict(j, v, true, false)
	if !ok {
		s.ctr.peerErrors.Add(1)
		return solveResponse{}, false
	}
	resp.PeerFilled = true
	s.ctr.peerFills.Add(1)
	// Adopt the verdict locally so the next request is a plain hit and
	// the owner is asked once per shard, not once per request.
	s.cache.put(j.canon.Hash, v)
	return resp, true
}

// witnessFromWire decodes a peer's canonical witness (integers travel
// as decimal strings).
func witnessFromWire(e *cluster.CacheEntry) (*smtlib.Witness, bool) {
	w := &smtlib.Witness{
		Str: append([]string{}, e.Str...),
		Int: make([]*big.Int, len(e.Int)),
	}
	for i, s := range e.Int {
		n, ok := new(big.Int).SetString(s, 10)
		if !ok {
			return nil, false
		}
		w.Int[i] = n
	}
	return w, true
}

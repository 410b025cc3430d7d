package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro/internal/fault"
)

// CacheEntry is the wire form of one canonical verdict, served by a
// shard's GET /cache/<hash> endpoint and consumed by peer cache-fill.
// It carries the verdict in canonical coordinates — exactly what the
// verdict cache stores — so the receiving shard transports it onto its
// own parse and re-validates the witness before trusting it, the same
// rule a local cache hit obeys.
type CacheEntry struct {
	Status string   `json:"status"`        // "sat" or "unsat", never anything else
	Str    []string `json:"str,omitempty"` // canonical string witness (sat only)
	Int    []string `json:"int,omitempty"` // canonical integer witness, decimal
}

// peerFetchTimeout bounds one peer cache-fill hop. The fill is an
// optimization — a slow owner must cost less than the solve it might
// save — so the bound is tight and a miss just falls through to
// solving locally.
const peerFetchTimeout = 500 * time.Millisecond

// Peers is a shard's view of its cluster: the shared ring, its own
// address, and a guarded client for asking a canonical problem's owner
// for an already-settled verdict before solving (peer cache-fill, so
// the distributed verdict cache fills once per canonical problem). A
// nil *Peers is "no cluster" and every method degrades to a miss.
type Peers struct {
	ring     *Ring
	self     string
	client   *Client
	breakers map[string]*Breaker
}

// NewPeers builds a shard's peer view. shards is the full cluster list
// (including self, in the shared order); self is this shard's own
// address in that list. A list without self or with fewer than two
// shards returns nil: there is no one to ask.
func NewPeers(self string, shards []string, sched *fault.Schedule) *Peers {
	if len(shards) < 2 {
		return nil
	}
	found := false
	for _, s := range shards {
		if s == self {
			found = true
			break
		}
	}
	if !found {
		return nil
	}
	p := &Peers{
		ring:     NewRing(shards, 0),
		self:     self,
		client:   NewClient(peerFetchTimeout, 0, 0, sched),
		breakers: make(map[string]*Breaker),
	}
	for _, s := range shards {
		p.breakers[s] = NewBreaker(3, 2*time.Second)
	}
	return p
}

// Self returns this shard's own cluster address ("" for a nil,
// standalone view).
func (p *Peers) Self() string {
	if p == nil {
		return ""
	}
	return p.self
}

// Owner returns the shard owning hash and whether that is this shard
// itself (in which case there is no one better to ask).
func (p *Peers) Owner(hash string) (addr string, self bool) {
	if p == nil {
		return "", true
	}
	addr = p.ring.Owner(hash)
	return addr, addr == p.self
}

// Fetch asks hash's owner for a settled canonical verdict. It returns
// (nil, nil) on a miss — the owner answered 404, the owner is this
// shard, or its breaker is open — and an error only on transport
// failure. One bounded hop, no retries: the caller's fallback is
// solving the problem itself, which is always available.
func (p *Peers) Fetch(ctx context.Context, hash string) (*CacheEntry, error) {
	if p == nil {
		return nil, nil
	}
	owner, self := p.Owner(hash)
	if self {
		return nil, nil
	}
	br := p.breakers[owner]
	if !br.Allow() {
		return nil, nil
	}
	ctx, cancel := context.WithTimeout(ctx, peerFetchTimeout)
	defer cancel()
	res, err := p.client.Do(ctx, http.MethodGet, "http://"+owner+"/cache/"+hash, nil, nil)
	if err != nil {
		br.Failure()
		return nil, err
	}
	br.Success()
	if res.Status != http.StatusOK {
		return nil, nil
	}
	var e CacheEntry
	if err := json.Unmarshal(res.Body, &e); err != nil {
		return nil, fmt.Errorf("decoding peer cache entry: %w", err)
	}
	if e.Status != "sat" && e.Status != "unsat" {
		// A peer may only hand over settled verdicts; anything else is
		// treated as a miss, never cached, never served.
		return nil, nil
	}
	return &e, nil
}

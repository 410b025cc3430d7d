// Package cluster is the fault-tolerant sharding layer over trauserve:
// a consistent-hash ring routes each canonical problem to an owner
// shard, a health-checked circuit breaker guards every hop, transport
// errors retry with backoff and fail over along the ring, and when
// every shard is unreachable the router degrades to solving locally — availability
// falls back to single-node behavior instead of erroring.
//
// The layer can never flip a verdict: routing only decides WHERE a
// canonical problem is solved and cached, and every served witness is
// still re-validated by the concrete evaluator against the requesting
// parse (the PR 4 invariant lives in internal/server, below this
// package). The worst a dying shard can do is cost a retry, a
// failover, or a local solve — degradation toward UNKNOWN/latency, never toward
// a wrong answer.
//
// The package sits beside internal/server in the import graph:
// cluster imports smtlib and fault only, server imports cluster for
// the ring and the peer cache-fill client, and cmd/trauserve wires a
// local server.Server into the Router as its degraded-mode fallback.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
)

// defaultReplicas is the virtual-node count per shard. 64 points per
// shard keeps the assignment spread within a few percent of uniform
// for small clusters while the ring stays tiny (N*64 points).
const defaultReplicas = 64

// Ring is a consistent-hash ring over shard addresses. Construction
// depends only on the shard list and replica count — no clock, no
// randomness, no process identity — so every process handed the same
// shard list computes byte-identical assignments, which is what lets
// shards answer "who owns this hash?" without consulting the router.
type Ring struct {
	shards []string
	points []ringPoint // sorted by position
}

type ringPoint struct {
	pos   uint64
	shard int // index into shards
}

// NewRing builds a ring of replicas virtual nodes per shard
// (replicas <= 0 selects the default). The shard list is used as
// given: callers pass the same ordered list to every process.
func NewRing(shards []string, replicas int) *Ring {
	if replicas <= 0 {
		replicas = defaultReplicas
	}
	r := &Ring{shards: append([]string(nil), shards...)}
	var buf [8]byte
	for i, s := range r.shards {
		for v := 0; v < replicas; v++ {
			binary.BigEndian.PutUint64(buf[:], uint64(v))
			sum := sha256.Sum256(append([]byte(s+"#"), buf[:]...))
			r.points = append(r.points, ringPoint{pos: binary.BigEndian.Uint64(sum[:8]), shard: i})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].pos != r.points[b].pos {
			return r.points[a].pos < r.points[b].pos
		}
		// A 64-bit collision between vnode hashes is vanishingly rare
		// but must still order deterministically across processes.
		return r.points[a].shard < r.points[b].shard
	})
	return r
}

// Shards returns the ring's shard list (the slice is shared; do not
// mutate).
func (r *Ring) Shards() []string { return r.shards }

// keyPos maps a key (a canonical problem hash, or any string) to its
// ring position.
func keyPos(key string) uint64 {
	sum := sha256.Sum256([]byte(key))
	return binary.BigEndian.Uint64(sum[:8])
}

// Owner returns the shard owning key ("" on an empty ring).
func (r *Ring) Owner(key string) string {
	if r == nil || len(r.points) == 0 {
		return ""
	}
	return r.shards[r.points[r.search(keyPos(key))].shard]
}

// Successors returns up to n distinct shards in ring order starting at
// key's owner: the owner first, then the shards a failover walks to.
// n <= 0 or n > len(shards) returns every shard.
func (r *Ring) Successors(key string, n int) []string {
	if r == nil || len(r.points) == 0 {
		return nil
	}
	if n <= 0 || n > len(r.shards) {
		n = len(r.shards)
	}
	seen := make([]bool, len(r.shards))
	out := make([]string, 0, n)
	start := r.search(keyPos(key))
	for i := 0; i < len(r.points); i++ {
		if len(out) >= n {
			break
		}
		p := r.points[(start+i)%len(r.points)]
		if seen[p.shard] {
			continue
		}
		seen[p.shard] = true
		out = append(out, r.shards[p.shard])
	}
	return out
}

// search returns the index of the first point at or after pos,
// wrapping to 0 past the last point.
func (r *Ring) search(pos uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].pos >= pos })
	if i == len(r.points) {
		return 0
	}
	return i
}

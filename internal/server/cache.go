// Package server is the trauserve serving layer: a bounded worker pool
// solving SMT-LIB problems received over HTTP, behind an admission
// queue with explicit overload responses, and a canonical-form verdict
// cache whose witnesses are re-validated by the concrete evaluator
// before being served (see DESIGN.md, "The serving layer").
package server

import (
	"container/list"
	"sync"

	"repro/internal/core"
	"repro/internal/smtlib"
)

// verdict is a cache entry: a settled status plus, for SAT, the model
// in canonical coordinates. Only SAT and UNSAT are cached — unknown,
// timed-out, and cancelled results depend on the request's budget, not
// the problem.
type verdict struct {
	status  core.Status
	witness *smtlib.Witness // canonical coordinates; nil for UNSAT
}

// lruCache is a size-bounded verdict cache keyed by canonical hash,
// with hit/miss/eviction counters. Safe for concurrent use.
type lruCache struct {
	mu      sync.Mutex
	max     int
	entries map[string]*list.Element
	order   *list.List // front = most recently used

	hits      int64
	misses    int64
	evictions int64
}

type lruEntry struct {
	key string
	val verdict
}

func newLRUCache(max int) *lruCache {
	return &lruCache{
		max:     max,
		entries: make(map[string]*list.Element),
		order:   list.New(),
	}
}

// get looks up a verdict and promotes it on hit.
func (c *lruCache) get(key string) (verdict, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses++
		return verdict{}, false
	}
	c.hits++
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry).val, true
}

// put inserts or refreshes a verdict, evicting the least recently used
// entry when over capacity.
func (c *lruCache) put(key string, v verdict) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.max <= 0 {
		return
	}
	if el, ok := c.entries[key]; ok {
		el.Value.(*lruEntry).val = v
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(&lruEntry{key: key, val: v})
	for len(c.entries) > c.max {
		last := c.order.Back()
		if last == nil {
			break
		}
		c.order.Remove(last)
		delete(c.entries, last.Value.(*lruEntry).key)
		c.evictions++
	}
}

// remove drops an entry (a cached witness that failed revalidation).
func (c *lruCache) remove(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.order.Remove(el)
		delete(c.entries, key)
	}
}

// removeIf drops the entry for key only while it still holds exactly v
// (verdicts compare by witness pointer, so "exactly" means the same
// cached object, not an equal-looking one) and reports whether it did.
// This is the evict-exactly-once primitive for failed revalidations:
// of N concurrent readers that all fetched the same poisoned verdict,
// one wins the eviction, and none can clobber a fresh verdict that a
// re-solve has already put in its place.
func (c *lruCache) removeIf(key string, v verdict) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok || el.Value.(*lruEntry).val != v {
		return false
	}
	c.order.Remove(el)
	delete(c.entries, key)
	return true
}

// len reports the current entry count.
func (c *lruCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// counters reads the hit/miss/eviction counters atomically with respect
// to cache operations.
func (c *lruCache) counters() (hits, misses, evictions int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evictions
}

package server

import "sync"

// flightTable implements dedup-in-flight: concurrent requests whose
// problems share a canonical hash coalesce onto one underlying solve.
// The first arrival becomes the leader (it is admitted and solved
// normally); later arrivals attach to the leader's flight and receive
// the same verdict, transported onto their own parse exactly like a
// cache hit — so all waiters observe the identical verdict and
// witness, and the cache fill happens once.
//
// A flight that resolves unsettled (timeout, cancellation, fault, a
// leader that was never admitted) promises nothing about the problem:
// waiters fall back and re-enter the dispatch path themselves rather
// than inheriting a verdict that was the leader's budget, not the
// problem's answer.
type flightTable struct {
	mu      sync.Mutex
	flights map[string]*flight
}

// flight is one in-flight canonical problem. The fields are guarded
// by the table lock; settled and v are written once, by resolve,
// before the waiters run.
type flight struct {
	hash     string
	resolved bool
	settled  bool
	v        verdict // canonical-coordinate verdict when settled

	waiters []func(*flight)
}

func newFlightTable() *flightTable {
	return &flightTable{flights: make(map[string]*flight)}
}

// join returns the flight for hash and whether the caller is its
// leader. A leader must eventually resolve the flight — even on its
// failure paths — or its followers are never answered.
func (t *flightTable) join(hash string) (*flight, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if f, ok := t.flights[hash]; ok {
		return f, false
	}
	f := &flight{hash: hash}
	t.flights[hash] = f
	return f, true
}

// subscribe registers fn to run when fl resolves, on the resolving
// goroutine (a worker, the drain path, or a leader that was not
// admitted); if fl has already resolved, fn runs now. Waiters never
// block a goroutine.
func (t *flightTable) subscribe(fl *flight, fn func(*flight)) {
	t.mu.Lock()
	if fl.resolved {
		t.mu.Unlock()
		fn(fl)
		return
	}
	fl.waiters = append(fl.waiters, fn)
	t.mu.Unlock()
}

// resolve publishes the leader's outcome: the flight leaves the table
// first (new arrivals for the hash start a fresh flight), then the
// waiters run, outside the table lock.
func (t *flightTable) resolve(fl *flight, settled bool, v verdict) {
	t.mu.Lock()
	delete(t.flights, fl.hash)
	fl.resolved, fl.settled, fl.v = true, settled, v
	waiters := fl.waiters
	fl.waiters = nil
	t.mu.Unlock()
	for _, fn := range waiters {
		fn(fl)
	}
}

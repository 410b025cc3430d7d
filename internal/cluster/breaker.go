package cluster

import (
	"sync"
	"time"
)

// BreakerState is a circuit breaker's position.
type BreakerState int

// Breaker states. Closed passes traffic; Open sheds it; HalfOpen
// passes exactly one probe to test recovery.
const (
	BreakerClosed BreakerState = iota
	BreakerOpen
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return "?"
}

// Breaker is a per-shard circuit breaker. Closed counts consecutive
// failures and opens at the threshold; open sheds every request until
// the cooldown elapses, then admits exactly one half-open probe; the
// probe's outcome closes the breaker or re-opens it for another
// cooldown. Health-probe results feed the same Success/Failure
// methods as request outcomes, so a shard that comes back is noticed
// within one probe interval even with no traffic to fail over.
type Breaker struct {
	mu        sync.Mutex
	threshold int           // consecutive failures that open the breaker
	cooldown  time.Duration // open -> half-open wait
	now       func() time.Time

	state    BreakerState
	failures int       // consecutive failures while closed
	openedAt time.Time // when the breaker last opened
	probing  bool      // the single half-open probe is in flight
}

// NewBreaker returns a closed breaker that opens after threshold
// consecutive failures and tests recovery after cooldown.
func NewBreaker(threshold int, cooldown time.Duration) *Breaker {
	if threshold <= 0 {
		threshold = 3
	}
	if cooldown <= 0 {
		cooldown = 2 * time.Second
	}
	return &Breaker{threshold: threshold, cooldown: cooldown, now: time.Now}
}

// Allow reports whether a request may proceed. In the open state it
// flips to half-open once the cooldown has elapsed and admits exactly
// one probe; every other caller is shed until that probe reports.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if b.now().Sub(b.openedAt) < b.cooldown {
			return false
		}
		b.state = BreakerHalfOpen
		b.probing = true
		return true
	default: // half-open
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// Success reports a completed request or health probe: it closes the
// breaker from any state and clears the failure count.
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state = BreakerClosed
	b.failures = 0
	b.probing = false
}

// Failure reports a transport failure or failed health probe. In the
// closed state it opens the breaker at the threshold; in half-open it
// re-opens immediately (the probe failed); in open it refreshes the
// cooldown clock so a shard that is down stays shed.
func (b *Breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		b.failures++
		if b.failures >= b.threshold {
			b.open()
		}
	case BreakerHalfOpen:
		b.open()
	case BreakerOpen:
		b.openedAt = b.now()
	}
}

// open transitions to the open state (callers hold b.mu).
func (b *Breaker) open() {
	b.state = BreakerOpen
	b.openedAt = b.now()
	b.failures = 0
	b.probing = false
}

// State reports the breaker's current position without advancing it
// (an open breaker past its cooldown still reads open until a request
// claims the half-open probe).
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

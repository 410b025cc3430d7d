package engine

import (
	"testing"
	"time"

	"repro/internal/fault"
)

func TestChargeWithoutBudgetIsPoll(t *testing.T) {
	c := Background()
	for i := 0; i < 100; i++ {
		if c.Charge("site", 1000) {
			t.Fatal("Charge stopped a context with no budget installed")
		}
	}
	var nilCtx *Ctx
	if nilCtx.Charge("site", 1) {
		t.Fatal("nil Ctx Charge returned true")
	}
	if _, ok := nilCtx.BudgetRemaining(); ok {
		t.Fatal("nil Ctx reports a budget")
	}
}

func TestBudgetTripStopsTreeWithReason(t *testing.T) {
	root := Background()
	root.SetBudget(10)
	child := root.Child("branch")
	sibling := root.Child("other")

	if child.Charge("pfa product", 4) {
		t.Fatal("tripped with 6 units left")
	}
	if !child.Charge("simplex tableau", 7) {
		t.Fatal("did not trip past the budget")
	}
	if root.Cause() != CauseBudget {
		t.Fatalf("root cause = %v, want budget", root.Cause())
	}
	if got := root.BudgetReason(); got != "budget: simplex tableau" {
		t.Fatalf("BudgetReason = %q", got)
	}
	// The pool is global: siblings observe the stop.
	if !sibling.Poll() {
		t.Fatal("sibling kept running after the tree's budget tripped")
	}
	if !root.Expired() {
		t.Fatal("root did not report stopped")
	}
}

// TestBudgetSliceConfinedToSubtree pins the nested-budget contract:
// when a child installs its own budget slice via SetBudget, exhausting
// the slice stops only that child's subtree. The parent and the
// sibling attempts (racing the same problem under their own slices)
// keep running.
func TestBudgetSliceConfinedToSubtree(t *testing.T) {
	root := Background()
	a := root.Child("try.a")
	a.SetBudget(5)
	b := root.Child("try.b")
	b.SetBudget(5)
	inner := a.Child("round0")

	if !inner.Charge("pfa product", 9) {
		t.Fatal("slice did not trip")
	}
	if a.Cause() != CauseBudget {
		t.Fatalf("slice owner cause = %v, want budget", a.Cause())
	}
	if got := a.BudgetReason(); got != "budget: pfa product" {
		t.Fatalf("BudgetReason = %q", got)
	}
	if root.Cause() != CauseNone || root.Expired() {
		t.Fatal("parent stopped by a child's budget slice")
	}
	if b.Poll() {
		t.Fatal("sibling attempt stopped by another attempt's slice")
	}
	if b.Charge("simplex tableau", 3) {
		t.Fatal("sibling's own slice charged by another attempt's trip")
	}
}

func TestBudgetFirstSiteSticks(t *testing.T) {
	c := Background()
	c.SetBudget(1)
	c.Charge("first", 5)
	c.Charge("second", 5)
	if got := c.BudgetReason(); got != "budget: first" {
		t.Fatalf("BudgetReason = %q, want the first tripping site", got)
	}
}

func TestBudgetInheritedByChildren(t *testing.T) {
	root := Background()
	root.SetBudget(5)
	child := root.Child("a").Child("b")
	if rem, ok := child.BudgetRemaining(); !ok || rem != 5 {
		t.Fatalf("grandchild budget = %d,%v; want 5,true", rem, ok)
	}
	child.Charge("x", 3)
	if rem, _ := root.BudgetRemaining(); rem != 2 {
		t.Fatalf("root sees remaining = %d, want 2", rem)
	}
}

func TestSetBudgetNonPositiveClears(t *testing.T) {
	c := Background()
	c.SetBudget(5)
	c.SetBudget(0)
	if _, ok := c.BudgetRemaining(); ok {
		t.Fatal("SetBudget(0) left a budget installed")
	}
}

// TestPoolDebitedCollectively pins the multi-tenant contract: two
// independent solve trees attached to one pool drain a single budget,
// and exhausting it stops only trees carrying that pool.
func TestPoolDebitedCollectively(t *testing.T) {
	pool := NewPool("tenant bulk", 10)
	a := Background()
	a.SetBudgetPool(pool)
	b := Background()
	b.SetBudgetPool(pool)
	other := Background()
	other.SetBudgetPool(NewPool("tenant alice", 10))

	if a.Charge("pfa product", 6) {
		t.Fatal("tripped with 4 units left")
	}
	if pool.Remaining() != 4 {
		t.Fatalf("Remaining = %d, want 4", pool.Remaining())
	}
	// The OTHER solve of the same tenant exhausts what is left.
	if !b.Child("round0").Charge("cnf clause", 7) {
		t.Fatal("collective debit did not trip the pool")
	}
	if b.Cause() != CauseBudget {
		t.Fatalf("b cause = %v, want budget", b.Cause())
	}
	if got := b.BudgetReason(); got != "budget: tenant bulk: cnf clause" {
		t.Fatalf("BudgetReason = %q", got)
	}
	if !pool.Dry() {
		t.Fatal("pool not reported dry after trip")
	}
	// a has not stopped yet, but its next Charge observes the dry pool.
	if !a.Charge("simplex tableau", 1) {
		t.Fatal("sibling solve kept running on a dry pool")
	}
	// First tripping site sticks pool-wide.
	if got := a.BudgetReason(); got != "budget: tenant bulk: cnf clause" {
		t.Fatalf("a BudgetReason = %q, want the first pool site", got)
	}
	// Another tenant's pool is unaffected.
	if other.Charge("pfa product", 5) || other.Cause() != CauseNone {
		t.Fatal("dry pool stopped a different tenant's solve")
	}
}

// TestPoolRidesAlongPerSolveBudget: the per-request SetBudget cap and
// the tenant pool are debited together; whichever runs dry first stops
// the solve, and the reason names the right governor.
func TestPoolAndBudgetStack(t *testing.T) {
	pool := NewPool("tenant bulk", 100)
	c := Background()
	c.SetBudget(5)
	c.SetBudgetPool(pool)
	if !c.Charge("pfa product", 7) {
		t.Fatal("per-solve budget did not trip first")
	}
	if got := c.BudgetReason(); got != "budget: pfa product" {
		t.Fatalf("BudgetReason = %q, want the per-solve site", got)
	}
	if pool.Remaining() != 93 {
		t.Fatalf("pool Remaining = %d, want 93 (debited before the trip)", pool.Remaining())
	}
}

// TestPoolReasonNotLeakedAcrossCauses: a solve that stops for its own
// reason (cancellation) must not report the pool's trip site, even
// when another solve of the same tenant has already drained the pool.
func TestPoolReasonNotLeakedAcrossCauses(t *testing.T) {
	pool := NewPool("tenant bulk", 1)
	first := Background()
	first.SetBudgetPool(pool)
	first.Charge("pfa product", 5) // drains the pool
	second := Background()
	second.SetBudgetPool(pool)
	second.Cancel()
	if got := second.BudgetReason(); got != "" {
		t.Fatalf("cancelled solve reports pool reason %q", got)
	}
	if second.Cause() != CauseCancelled {
		t.Fatalf("cause = %v, want cancelled", second.Cause())
	}
}

// TestRefillingPoolRecovers: a token-bucket pool that runs dry flips
// Dry() back to false once enough time has passed for the refill rate
// to restore units — the process-lifetime 429 becomes a bounded wait.
func TestRefillingPoolRecovers(t *testing.T) {
	pool := NewRefillingPool("tenant bulk", 10, 1000) // 1000 units/sec
	c := Background()
	c.SetBudgetPool(pool)
	if !c.Charge("pfa product", 20) {
		t.Fatal("overdraft did not trip the pool")
	}
	if !pool.Dry() {
		t.Fatal("pool not dry immediately after the trip")
	}
	deadline := time.Now().Add(2 * time.Second)
	for pool.Dry() {
		if time.Now().After(deadline) {
			t.Fatal("refilling pool never recovered")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if r := pool.Remaining(); r <= 0 {
		t.Fatalf("Remaining = %d after recovery, want > 0", r)
	}
	// A fresh solve admitted after recovery runs and can trip again,
	// blaming its own site rather than the pre-recovery one.
	fresh := Background()
	fresh.SetBudgetPool(pool)
	if !fresh.Charge("cnf clause", 1<<40) {
		t.Fatal("recovered pool did not trip on a fresh overdraft")
	}
	if got := fresh.BudgetReason(); got != "budget: tenant bulk: cnf clause" {
		t.Fatalf("BudgetReason = %q, want the post-recovery site", got)
	}
}

// TestRefillingPoolCapsAtCapacity: refill never grows the bucket past
// its configured capacity, no matter how long the tenant idles.
func TestRefillingPoolCapsAtCapacity(t *testing.T) {
	pool := NewRefillingPool("t", 5, 1_000_000)
	time.Sleep(20 * time.Millisecond) // worth ~20000 units at this rate
	if r := pool.Remaining(); r != 5 {
		t.Fatalf("Remaining = %d, want capped capacity 5", r)
	}
	c := Background()
	c.SetBudgetPool(pool)
	c.Charge("site", 3)
	time.Sleep(20 * time.Millisecond)
	if r := pool.Remaining(); r != 5 {
		t.Fatalf("Remaining = %d after idle refill, want 5", r)
	}
}

// TestRefillingPoolZeroRateIsPrepaid: perSec <= 0 keeps the original
// prepaid semantics — a dry pool stays dry forever.
func TestRefillingPoolZeroRateIsPrepaid(t *testing.T) {
	pool := NewRefillingPool("t", 2, 0)
	c := Background()
	c.SetBudgetPool(pool)
	c.Charge("site", 5)
	time.Sleep(20 * time.Millisecond)
	if !pool.Dry() {
		t.Fatal("prepaid pool refilled")
	}
	if NewRefillingPool("t", 0, 100) != nil {
		t.Fatal("zero-capacity refilling pool must be nil (unlimited)")
	}
}

func TestNilPoolIsNoPool(t *testing.T) {
	if p := NewPool("x", 0); p != nil {
		t.Fatal("NewPool(0) did not return nil")
	}
	var p *Pool
	if p.Dry() || p.Name() != "" || p.Remaining() != 0 {
		t.Fatal("nil Pool misbehaves")
	}
	c := Background()
	c.SetBudgetPool(nil)
	if c.Charge("site", 1000) {
		t.Fatal("nil pool charged")
	}
	// Children inherit the pool at Child time.
	pool := NewPool("t", 3)
	root := Background()
	root.SetBudgetPool(pool)
	if !root.Child("a").Child("b").Charge("x", 4) {
		t.Fatal("grandchild did not debit the inherited pool")
	}
	if root.Cause() != CauseBudget {
		t.Fatalf("root cause = %v, want budget via inherited pool", root.Cause())
	}
}

func TestScheduleCancelInjection(t *testing.T) {
	c := Background()
	c.SetSchedule(fault.At(3, fault.OpCancel))
	child := c.Child("branch")
	stops := 0
	for i := 0; i < 5; i++ {
		if child.Poll() {
			stops++
		}
	}
	if stops != 3 { // fires at visit 3, then stays cancelled
		t.Fatalf("stopped %d times, want 3 (inject at 3rd then sticky)", stops)
	}
	if child.Cause() != CauseCancelled {
		t.Fatalf("cause = %v", child.Cause())
	}
}

func TestScheduleBudgetInjection(t *testing.T) {
	c := Background()
	c.SetSchedule(fault.At(1, fault.OpBudget))
	if !c.Charge("site", 0) {
		t.Fatal("injected budget exhaustion did not stop the context")
	}
	if c.Cause() != CauseBudget {
		t.Fatalf("cause = %v, want budget", c.Cause())
	}
}

func TestSchedulePanicInjectionIsContainable(t *testing.T) {
	c := Background()
	c.SetSchedule(fault.At(2, fault.OpPanic))
	d := fault.Contain("test", func() {
		for i := 0; i < 10; i++ {
			c.Poll()
		}
	})
	if d == nil || !d.Injected {
		t.Fatalf("injected panic not contained/marked: %v", d)
	}
}

func TestScheduleCountsExpiredSitesToo(t *testing.T) {
	c := Background()
	s := fault.Counting()
	c.SetSchedule(s)
	c.Poll()
	c.Expired()
	c.Charge("x", 1)
	if s.Visits() != 3 {
		t.Fatalf("Visits = %d, want 3 (Poll, Expired, Charge)", s.Visits())
	}
}

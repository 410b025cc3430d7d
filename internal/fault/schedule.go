package fault

import "sync/atomic"

// Op is the fault a Schedule injects when it fires.
type Op int

// Injectable faults.
const (
	// OpNone: nothing fires at this visit.
	OpNone Op = iota
	// OpPanic: panic at the visit site (contained at the boundaries).
	OpPanic
	// OpCancel: cancel the visiting context.
	OpCancel
	// OpBudget: exhaust the visiting context's resource budget.
	OpBudget
)

func (o Op) String() string {
	switch o {
	case OpNone:
		return "none"
	case OpPanic:
		return "panic"
	case OpCancel:
		return "cancel"
	case OpBudget:
		return "budget"
	}
	return "?"
}

// NetOp is the fault a Schedule injects at the network boundary: the
// cluster layer calls NetVisit once per hop (every forward, retry,
// probe, or peer cache-fill attempt), and the schedule fires
// its NetOp exactly once, at the k-th hop.
type NetOp int

// Injectable network faults.
const (
	// NetNone: nothing fires at this hop.
	NetNone NetOp = iota
	// NetConnectFail: the hop fails before any bytes move, as a
	// refused or unroutable connection would.
	NetConnectFail
	// NetStall: the hop hangs until the caller's context gives up, as
	// a black-holed peer would.
	NetStall
	// NetCut: the hop's response body is severed mid-read, as a peer
	// dying after its headers went out would.
	NetCut
)

func (o NetOp) String() string {
	switch o {
	case NetNone:
		return "none"
	case NetConnectFail:
		return "connect-fail"
	case NetStall:
		return "stall"
	case NetCut:
		return "cut"
	}
	return "?"
}

// Schedule is a deterministic fault-injection plan: the engine calls
// Visit at every Poll/Charge site, and the schedule fires its Op
// exactly once, at the k-th visit. A Schedule with k == 0 never fires
// and only counts visits — chaos tests run one counting pass to learn
// how many injection points an instance has, then sweep k over that
// range. All methods are safe on a nil receiver (a nil Schedule is
// "no injection") and for concurrent use; when several solves share
// one schedule the k-th visit is whichever goroutine gets there first,
// so sweeps assert verdict invariants, not which site fired.
//
// The network boundary is a second, independent visit counter: the
// cluster transport calls NetVisit at every hop, and a schedule built
// with AtNet fires its NetOp exactly once, at the k-th hop. The two
// boundaries never interfere — an engine schedule counts no hops and a
// network schedule fires at no Poll site — so one Schedule value can
// drive either sweep.
type Schedule struct {
	k      uint64
	op     Op
	visits atomic.Uint64
	fired  atomic.Bool

	netK      uint64
	netOp     NetOp
	netVisits atomic.Uint64
	netFired  atomic.Bool
}

// At returns a Schedule that fires op at the k-th visit (1-based).
// k == 0 returns a counting-only schedule.
func At(k uint64, op Op) *Schedule {
	return &Schedule{k: k, op: op}
}

// AtNet returns a Schedule that fires op at the k-th network hop
// (1-based). k == 0 returns a counting-only schedule: chaos sweeps run
// one counting pass to learn how many hops a scenario takes, then
// sweep k over that range.
func AtNet(k uint64, op NetOp) *Schedule {
	return &Schedule{netK: k, netOp: op}
}

// Combine merges an engine-boundary plan and a network-boundary plan
// into one fresh Schedule, so a single value can drive both sweeps
// (the boundaries are independent; see the type comment). Either input
// may be nil; both nil returns nil. Visit counts are not carried over —
// use it on unfired schedules.
func Combine(eng, net *Schedule) *Schedule {
	if eng == nil && net == nil {
		return nil
	}
	s := &Schedule{}
	if eng != nil {
		s.k, s.op = eng.k, eng.op
	}
	if net != nil {
		s.netK, s.netOp = net.netK, net.netOp
	}
	return s
}

// Counting returns a schedule that never fires and only counts visits.
func Counting() *Schedule {
	return &Schedule{}
}

// NewSchedule derives a schedule from a seed: op cycles through
// panic/cancel/budget with seed%3 (0 is panic) and the visit index is
// 1 + (seed/3) % 1024. A seed <= 0 returns nil (no injection). Seed
// 3072 is the conventional "panic at the first visit" smoke seed.
func NewSchedule(seed int64) *Schedule {
	if seed <= 0 {
		return nil
	}
	u := uint64(seed)
	op := Op(1 + u%3)
	return &Schedule{k: 1 + (u/3)%1024, op: op}
}

// Visit records one arrival at an injection site and returns the Op to
// inject now (OpNone almost always; the schedule's op exactly once, at
// the k-th visit).
func (s *Schedule) Visit() Op {
	if s == nil || s.k == 0 {
		if s != nil {
			s.visits.Add(1)
		}
		return OpNone
	}
	if s.visits.Add(1) == s.k && s.fired.CompareAndSwap(false, true) {
		return s.op
	}
	return OpNone
}

// Visits reports how many injection sites have been visited.
func (s *Schedule) Visits() uint64 {
	if s == nil {
		return 0
	}
	return s.visits.Load()
}

// Fired reports whether the schedule has injected its fault.
func (s *Schedule) Fired() bool {
	return s != nil && s.fired.Load()
}

// Op returns the fault the schedule injects when it fires.
func (s *Schedule) Op() Op {
	if s == nil {
		return OpNone
	}
	return s.op
}

// NetVisit records one arrival at the network boundary and returns the
// NetOp to inject now (NetNone almost always; the schedule's netOp
// exactly once, at the k-th hop).
func (s *Schedule) NetVisit() NetOp {
	if s == nil || s.netK == 0 {
		if s != nil {
			s.netVisits.Add(1)
		}
		return NetNone
	}
	if s.netVisits.Add(1) == s.netK && s.netFired.CompareAndSwap(false, true) {
		return s.netOp
	}
	return NetNone
}

// NetVisits reports how many network hops have been visited.
func (s *Schedule) NetVisits() uint64 {
	if s == nil {
		return 0
	}
	return s.netVisits.Load()
}

// NetFired reports whether the schedule has injected its network fault.
func (s *Schedule) NetFired() bool {
	return s != nil && s.netFired.Load()
}

// NetOp returns the network fault the schedule injects when it fires.
func (s *Schedule) NetOp() NetOp {
	if s == nil {
		return NetNone
	}
	return s.netOp
}

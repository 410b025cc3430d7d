package pfa

import (
	"strconv"
	"sync"

	"repro/internal/alphabet"
	"repro/internal/engine"
	"repro/internal/lia"
	"repro/internal/parikh"
)

// prodEdge is one transition of the asynchronous product: at least one
// of left/right is a transition index into the respective automaton;
// -1 marks the side that stays put (the other side reads a variable
// that must then be ε).
type prodEdge struct {
	from, to    int // product state ids
	left, right int // transition indices, -1 = stay
}

// syncSkeleton is the pool-independent template of a synchronization
// formula: the trimmed asynchronous product graph. It depends only on
// the structural shape of the two operands — state counts, transition
// endpoints and label ranges — never on their lia variables, so one
// skeleton serves every branch and every solve whose automata share
// that shape. Skeletons are immutable once stored; Sync instantiates
// them into the caller's pool by allocating fresh flow variables (the
// allocation sequence is identical on cache hit and miss, which is what
// keeps variable numbering — and with it run-to-run determinism —
// unchanged by caching).
type syncSkeleton struct {
	empty bool
	aut   parikh.Automaton // trimmed product graph (read-only)
	edges []prodEdge       // index-aligned with aut.Edges
}

// syncCache memoizes product skeletons across branches and solves. The
// cap bounds memory on adversarial workloads; once full, new shapes are
// rebuilt on every request (correct, just slower).
var syncCache = struct {
	sync.Mutex
	m map[string]*syncSkeleton
}{m: make(map[string]*syncSkeleton)}

const syncCacheCap = 512

// shapeKey appends the structural shape of one operand: everything the
// product construction reads except the lia variables.
func shapeKey(b []byte, p *PA) []byte {
	b = strconv.AppendInt(b, int64(p.NumStates), 32)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(p.Init), 32)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(p.Final), 32)
	for _, t := range p.Trans {
		b = append(b, ';')
		b = strconv.AppendInt(b, int64(t.From), 32)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(t.To), 32)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(t.Lo), 32)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(t.Hi), 32)
	}
	return b
}

// skeleton returns the product skeleton for p and q, from the cache
// when the shape has been built before. Hit/miss counters land on st
// (nil-safe). A build truncated by the resource governor is returned
// as empty but never cached: the cache may only hold skeletons that
// are correct independent of any budget.
func skeleton(ec *engine.Ctx, p, q *PA, st *engine.Stats) *syncSkeleton {
	key := make([]byte, 0, 64)
	key = shapeKey(key, p)
	key = append(key, '|')
	key = shapeKey(key, q)
	k := string(key)

	syncCache.Lock()
	sk, ok := syncCache.m[k]
	syncCache.Unlock()
	if ok {
		st.Add("sync.hit", 1)
		return sk
	}
	st.Add("sync.miss", 1)
	sk, truncated := buildSkeleton(ec, p, q)
	if truncated {
		st.Add("sync.truncated", 1)
		return sk
	}
	syncCache.Lock()
	if len(syncCache.m) < syncCacheCap {
		syncCache.m[k] = sk
	}
	syncCache.Unlock()
	return sk
}

// buildSkeleton constructs the asynchronous product of p and q, trimmed
// to states reachable from (init,init) and co-reachable to
// (final,final). Product growth is charged to ec's resource budget;
// when it trips, the build stops and returns an empty skeleton with
// truncated set — sound only because the tripped context is stopped,
// which forces the enclosing solve to UNKNOWN rather than trusting the
// empty product.
func buildSkeleton(ec *engine.Ctx, p, q *PA) (sk *syncSkeleton, truncated bool) {
	type pair struct{ x, y int }
	id := map[pair]int{}
	var states []pair
	get := func(pr pair) int {
		if i, ok := id[pr]; ok {
			return i
		}
		id[pr] = len(states)
		states = append(states, pr)
		return len(states) - 1
	}

	// Index transitions by source state for both automata.
	pOut := make([][]int, p.NumStates)
	for i, t := range p.Trans {
		pOut[t.From] = append(pOut[t.From], i)
	}
	qOut := make([][]int, q.NumStates)
	for i, t := range q.Trans {
		qOut[t.From] = append(qOut[t.From], i)
	}

	var edges []prodEdge
	get(pair{p.Init, q.Init})
	billed := 0
	for si := 0; si < len(states); si++ {
		// Bill the states and edges materialized since the last check:
		// the product can be quadratic in the operands, and this loop is
		// where an adversarial instance's memory actually gets allocated.
		if grown := len(states) + len(edges) - billed; grown > 0 || si%64 == 0 {
			if ec.Charge("pfa product", int64(grown)) {
				return &syncSkeleton{empty: true}, true
			}
			billed += grown
		}
		st := states[si]
		for _, ti := range pOut[st.x] {
			t := p.Trans[ti]
			// Synchronous move: prune label pairs whose value ranges
			// cannot intersect.
			for _, ui := range qOut[st.y] {
				u := q.Trans[ui]
				if maxi(t.Lo, u.Lo) > mini(t.Hi, u.Hi) {
					continue
				}
				to := get(pair{t.To, u.To})
				edges = append(edges, prodEdge{from: si, to: to, left: ti, right: ui})
			}
			// Left reads an ε-valued variable, right stays; impossible
			// when the variable cannot take ε.
			if t.Lo <= -1 {
				to := get(pair{t.To, st.y})
				edges = append(edges, prodEdge{from: si, to: to, left: ti, right: -1})
			}
		}
		for _, ui := range qOut[st.y] {
			u := q.Trans[ui]
			if u.Lo > -1 {
				continue
			}
			to := get(pair{st.x, u.To})
			edges = append(edges, prodEdge{from: si, to: to, left: -1, right: ui})
		}
	}
	finalID, ok := id[pair{p.Final, q.Final}]
	if !ok {
		return &syncSkeleton{empty: true}, false
	}

	// Co-reachability pruning. The reverse index and the visited set are
	// the allocations; bill them before the traversal so the worklist
	// below runs under an already-debited budget.
	if ec.Charge("pfa coreach", int64(len(states))) {
		return &syncSkeleton{empty: true}, true
	}
	rev := make([][]int, len(states)) // state -> incoming edge indices
	for i, e := range edges {
		rev[e.to] = append(rev[e.to], i)
	}
	co := make([]bool, len(states))
	co[finalID] = true
	stack := []int{finalID}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, ei := range rev[s] {
			f := edges[ei].from
			if !co[f] {
				co[f] = true
				stack = append(stack, f)
			}
		}
	}
	if !co[0] { // product initial state is id 0
		return &syncSkeleton{empty: true}, false
	}
	// Renumber kept states; drop edges touching pruned states.
	newID := make([]int, len(states))
	cnt := 0
	for i := range states {
		if co[i] {
			newID[i] = cnt
			cnt++
		} else {
			newID[i] = -1
		}
	}
	sk = &syncSkeleton{
		aut: parikh.Automaton{NumStates: cnt, Init: newID[0], Final: newID[finalID]},
	}
	for _, e := range edges {
		if co[e.from] && co[e.to] {
			sk.edges = append(sk.edges, prodEdge{from: newID[e.from], to: newID[e.to], left: e.left, right: e.right})
			sk.aut.Edges = append(sk.aut.Edges, parikh.Edge{From: newID[e.from], To: newID[e.to]})
		}
	}
	return sk, false
}

// ProductFlows records one asynchronous product and its flow variables
// for lazy connectivity checking. Act is the product's activation
// variable: the synchronization formula pins it to 1, so in models that
// do not select the disjunct containing the product (where the flow
// variables are meaningless) it can take another value and the
// connectivity cuts are vacuous.
type ProductFlows struct {
	Aut  parikh.Automaton
	Flow []lia.Var
	Act  lia.Var
}

// CutRegistry collects the products built by Sync so that candidate
// models can be screened for used-edge connectivity, with violated
// products refined by cut lemmas (lazy alternative to the eager
// spanning-tree Parikh encoding; see parikh.CutFormula).
type CutRegistry struct {
	Products []ProductFlows
}

// Lemmas inspects a candidate model. It returns nil when every product
// flow is connected; otherwise a conjunction of cut lemmas that exclude
// the model but no genuine solution.
//
// Only cuts the model violates are returned. A product whose flow
// constraints are not in force (its disjunct is not taken) has free Act
// and flows, possibly negative, so its flagged component may already
// satisfy the cut; emitting it anyway would hand the solver a lemma
// that excludes nothing, and the same model would come back forever.
func (r *CutRegistry) Lemmas(m lia.Model) lia.Formula {
	var cuts []lia.Formula
	for _, pr := range r.Products {
		if m.Value(pr.Act).Sign() <= 0 {
			continue // product not active in this model
		}
		used := make([]bool, len(pr.Flow))
		for i, f := range pr.Flow {
			used[i] = m.Value(f).Sign() > 0
		}
		if comp, ok := parikh.Disconnected(pr.Aut, used); !ok {
			cut := lia.Or(
				lia.Le(lia.V(pr.Act), lia.Const(0)),
				parikh.CutFormula(pr.Aut, pr.Flow, comp),
			)
			if !lia.Eval(cut, m) {
				cuts = append(cuts, cut)
			}
		}
	}
	if len(cuts) == 0 {
		return nil
	}
	return lia.And(cuts...)
}

// Sync builds the synchronization formula Ψ_{P×P'} of §7 for two
// parametric automata over disjoint variable sets: a linear formula
// whose models pair the word encodings of a common word of both
// automata. It conjoins the Parikh-image formula of the asynchronous
// product, the counter-projection constraints Ψ_#, the value-matching
// constraints Ψ_=, and both automata's local constraints.
//
// When reg is non-nil, the Parikh part uses the flow-only encoding and
// registers the product for lazy connectivity cuts; with a nil reg the
// eager (spanning-tree) encoding is emitted instead.
//
// The product is trimmed to states reachable from (init,init) and
// co-reachable to (final,final); when none remain the intersection is
// empty and False is returned. The trimmed product graph is memoized
// across calls by structural shape (see syncSkeleton); cache counters
// are recorded on st, which may be nil.
//
// Product growth is metered against ec's resource budget (nil ec means
// no metering). A budget trip returns False with ec stopped, which the
// decision procedure degrades to UNKNOWN — a truncated product is never
// trusted for a verdict and never cached.
func Sync(ec *engine.Ctx, pool *lia.Pool, p, q *PA, reg *CutRegistry, st *engine.Stats) lia.Formula {
	sk := skeleton(ec, p, q, st)
	if sk.empty {
		return lia.False
	}
	// Instantiation allocates flow variables and constraints per kept
	// edge — real memory on a cache hit too, so it is billed as well.
	if ec.Charge("pfa product", int64(len(sk.edges))) {
		return lia.False
	}
	kept := sk.edges
	aut := sk.aut

	// Parikh formula of the product over fresh flow variables.
	flow := make([]lia.Var, len(kept))
	for i := range kept {
		flow[i] = pool.Fresh("yprod")
	}
	var conj []lia.Formula
	if reg != nil {
		act := pool.Fresh("act")
		conj = append(conj, parikh.FlowOnly(aut, flow), lia.EqConst(act, 1))
		reg.Products = append(reg.Products, ProductFlows{Aut: aut, Flow: flow, Act: act})
	} else {
		conj = append(conj, parikh.Formula(aut, flow, pool))
	}

	// Ψ_#: each component counter equals the sum of product flows whose
	// label projects to its transition. Transitions absent from the
	// trimmed product are forced to zero.
	leftSum := make([]*lia.LinExpr, len(p.Trans))
	for i := range leftSum {
		leftSum[i] = lia.NewLin()
	}
	rightSum := make([]*lia.LinExpr, len(q.Trans))
	for i := range rightSum {
		rightSum[i] = lia.NewLin()
	}
	for i, e := range kept {
		if e.left >= 0 {
			leftSum[e.left].AddTermInt(flow[i], 1)
		}
		if e.right >= 0 {
			rightSum[e.right].AddTermInt(flow[i], 1)
		}
	}
	if !p.Anonymous {
		for i, t := range p.Trans {
			conj = append(conj, lia.Eq(lia.V(t.C), leftSum[i]))
		}
	}
	if !q.Anonymous {
		for i, t := range q.Trans {
			conj = append(conj, lia.Eq(lia.V(t.C), rightSum[i]))
		}
	}

	// Ψ_=: a used product edge forces its two labels to agree (with ε
	// on the stalled side). When one side is anonymous, its variable is
	// value-irrelevant and a run may use the same transition for
	// several characters; the partner's variable is then constrained
	// positionally by the transition's range instead of equated.
	// Implications decided by the static ranges are omitted.
	for i, e := range kept {
		used := lia.Ge(lia.V(flow[i]), lia.Const(1))
		switch {
		case e.left >= 0 && e.right >= 0:
			t, u := p.Trans[e.left], q.Trans[e.right]
			switch {
			case p.Anonymous && q.Anonymous:
				// No external references on either side; the range
				// intersection check at edge generation suffices.
			case q.Anonymous:
				conj = append(conj, rangeConstraint(used, t, u.Lo, u.Hi)...)
			case p.Anonymous:
				conj = append(conj, rangeConstraint(used, u, t.Lo, t.Hi)...)
			default:
				if t.Lo == t.Hi && u.Lo == u.Hi {
					continue // intersecting singletons: already equal
				}
				conj = append(conj, lia.Implies(used, lia.Eq(lia.V(t.V), lia.V(u.V))))
			}
		case e.left >= 0:
			t := p.Trans[e.left]
			if p.Anonymous || t.Lo == -1 && t.Hi == -1 {
				continue
			}
			conj = append(conj, lia.Implies(used,
				lia.EqConst(t.V, alphabet.Epsilon)))
		default:
			u := q.Trans[e.right]
			if q.Anonymous || u.Lo == -1 && u.Hi == -1 {
				continue
			}
			conj = append(conj, lia.Implies(used,
				lia.EqConst(u.V, alphabet.Epsilon)))
		}
	}

	// Local interpretation constraints of both operands.
	conj = append(conj, p.Local...)
	conj = append(conj, q.Local...)
	return lia.And(conj...)
}

// rangeConstraint guards tr's character variable into [lo, hi] when the
// product edge is used, omitting statically implied bounds.
func rangeConstraint(used lia.Formula, tr Trans, lo, hi int) []lia.Formula {
	var out []lia.Formula
	if lo == -1 && hi == -1 {
		if !(tr.Lo == -1 && tr.Hi == -1) {
			out = append(out, lia.Implies(used, lia.EqConst(tr.V, alphabet.Epsilon)))
		}
		return out
	}
	var conj []lia.Formula
	if tr.Lo < lo {
		conj = append(conj, lia.Ge(lia.V(tr.V), lia.Const(int64(lo))))
	}
	if tr.Hi > hi {
		conj = append(conj, lia.Le(lia.V(tr.V), lia.Const(int64(hi))))
	}
	if len(conj) > 0 {
		out = append(out, lia.Implies(used, lia.And(conj...)))
	}
	return out
}

func maxi(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func mini(a, b int) int {
	if a < b {
		return a
	}
	return b
}

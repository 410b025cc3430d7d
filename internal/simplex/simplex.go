// Package simplex implements a general simplex procedure for
// conjunctions of linear-arithmetic bounds in the style of Dutertre and
// de Moura ("A fast linear-arithmetic solver for DPLL(T)", CAV 2006),
// with exact rational arithmetic, pushed/popped bound frames, Farkas-style
// conflict explanations, and a branch-and-bound layer for integrality.
//
// It is the theory backend of the DPLL(T) loop in package lia.
//
// Arithmetic runs on the rval machine-word fast path (rat64.go):
// coefficients, assignment values, and bounds are int64 num/den pairs
// that promote to exact big.Rat on overflow. Rows are sorted sparse
// parallel slices (idx/coef) so pivots walk contiguous memory, and
// per-solver scratch buffers keep the pivot loop allocation-free.
package simplex

import (
	"math/big"
	"sort"

	"repro/internal/engine"
)

// NoTag marks bounds that do not correspond to an asserted atom (for
// example branch-and-bound split bounds); conflicts involving such a
// bound cannot be explained in terms of input atoms alone.
const NoTag = -1

type bound struct {
	val rval
	tag int
	set bool
}

// srow is one tableau row: a sparse linear form over nonbasic
// variables, as parallel slices sorted by variable id. Coefficient
// slots are owned by the row (see the rval copy discipline).
type srow struct {
	idx  []int32
	coef []rval
}

// find returns the position of v in r.idx, or -1. Rows are short, so a
// linear scan with early exit beats binary search in practice and is
// friendlier to the prefetcher.
func (r *srow) find(v int32) int {
	for p, k := range r.idx {
		if k >= v {
			if k == v {
				return p
			}
			return -1
		}
	}
	return -1
}

// Solver holds a simplex tableau over variables identified by small
// integers. Create one with New, define slack variables with
// DefineSlack, assert bounds, and call Check.
type Solver struct {
	n     int // number of variables
	beta  []rval
	lower []bound
	upper []bound

	rows []*srow   // basic var -> its row (nil when nonbasic)
	cols [][]int32 // nonbasic var -> unsorted basic rows containing it

	// defs keeps each slack's original definition over problem
	// variables so the tableau can be refactorized (rebuilt) when
	// pivoting fill-in makes the rows too dense.
	defs         map[int]map[int]*big.Int
	baseTerms    int
	lastRefactor int64
	// rowTerms is the number of entries over all rows, kept current so
	// the fill-in test does not walk the tableau on every Check.
	rowTerms int

	// Scratch buffers for the pivot substitution merge and the column
	// snapshot, reused across pivots so the hot loop does not allocate.
	mergeIdx   []int32
	mergeCoef  []rval
	colScratch []int32

	// Bound changes are undone through a trail so Push is O(1).
	undo   []boundChange
	frames []int // marks into undo

	// work lists the basic variables that may violate a bound, and
	// inWork is its membership bitmap. Invariant: every basic variable
	// outside its bounds is on the list. Values and bounds move only in
	// update, pivotAndUpdate, pivot, the asserts and refactorize, and
	// each enqueues what it touches, so Check scans the list instead of
	// the tableau and an empty list means the tableau is feasible.
	work   []int32
	inWork []bool

	// Pivots counts pivot operations, for diagnostics and budgets.
	Pivots int64
	// Refactors counts tableau refactorizations, for diagnostics.
	Refactors int64
	// PivotBudget, when positive, bounds the pivots per Check call.
	PivotBudget int64
	// Ctx, when non-nil, aborts Check (with a budget conflict) once the
	// context stops; polled once per pivot iteration.
	Ctx *engine.Ctx
}

type boundChange struct {
	v     int
	upper bool
	old   bound
}

// New returns a solver with n problem variables (ids 0..n-1).
func New(n int) *Solver {
	s := &Solver{
		n:    n,
		defs: make(map[int]map[int]*big.Int),
	}
	s.beta = make([]rval, n)
	for i := range s.beta {
		s.beta[i].d = 1 // value 0; the zero rval is not a valid rational
	}
	s.lower = make([]bound, n)
	s.upper = make([]bound, n)
	s.rows = make([]*srow, n)
	s.cols = make([][]int32, n)
	s.inWork = make([]bool, n)
	return s
}

// NumVars reports the number of variables including slack variables.
func (s *Solver) NumVars() int { return s.n }

// EnsureVars grows the variable space so ids 0..n-1 are valid. New
// variables are unbounded with value 0. Intended for callers that add
// constraints incrementally (lazy lemmas).
func (s *Solver) EnsureVars(n int) {
	if n <= s.n {
		return
	}
	s.Ctx.Charge("simplex tableau", int64(n-s.n))
	for i := s.n; i < n; i++ {
		s.beta = append(s.beta, rval{d: 1})
		s.lower = append(s.lower, bound{})
		s.upper = append(s.upper, bound{})
		s.rows = append(s.rows, nil)
		s.cols = append(s.cols, nil)
		s.inWork = append(s.inWork, false)
	}
	s.n = n
}

// DefineSlack introduces a new variable constrained to equal
// sum(def[v] * v) and returns its id. The new variable starts basic.
// The definition must be over problem variables (not other slacks) so
// refactorization can rebuild the tableau from definitions.
func (s *Solver) DefineSlack(def map[int]*big.Int) int {
	id := s.n
	s.n++
	s.lower = append(s.lower, bound{})
	s.upper = append(s.upper, bound{})
	stored := make(map[int]*big.Int, len(def))
	for v, c := range def {
		if _, isSlack := s.defs[v]; isSlack {
			// contract: lia defines slacks over problem variables only.
			panic("simplex: slack definition may not reference another slack")
		}
		stored[v] = new(big.Int).Set(c)
	}
	s.defs[id] = stored

	// Accumulate the row over nonbasic variables, substituting the rows
	// of definition variables that are currently basic. Exact arithmetic
	// makes the accumulation order-independent.
	acc := make(map[int]*rval)
	accAdd := func(w int, c *rval) {
		if cur, ok := acc[w]; ok {
			cur.add(c)
		} else {
			nv := new(rval)
			nv.set(c)
			acc[w] = nv
		}
	}
	var rc, t rval
	for v, c := range def {
		if c.Sign() == 0 {
			continue
		}
		rc.setBigInt(c)
		if br := s.rows[v]; br != nil {
			for p, k := range br.idx {
				t.mul(&rc, &br.coef[p])
				accAdd(int(k), &t)
			}
		} else {
			accAdd(v, &rc)
		}
	}
	keys := make([]int, 0, len(acc))
	for w := range acc {
		keys = append(keys, w)
	}
	sort.Ints(keys)
	row := &srow{
		idx:  make([]int32, 0, len(acc)),
		coef: make([]rval, 0, len(acc)),
	}
	var val rval
	val.setInt64(0)
	for _, w := range keys {
		cw := acc[w]
		if cw.sign() == 0 {
			continue
		}
		row.idx = append(row.idx, int32(w))
		row.coef = append(row.coef, *cw) // acc owns cw; ownership moves to the row
		val.addMul(cw, &s.beta[w])
		s.colAdd(w, id)
	}
	s.beta = append(s.beta, val) // val is dead after this; the slot takes ownership
	s.rows = append(s.rows, row)
	s.cols = append(s.cols, nil)
	// The new slack has no bounds yet, so it cannot be violated and
	// stays off the worklist until an assert puts it there. Enqueueing
	// it here would make the next Check look for a refactorization the
	// tableau did not ask for.
	s.inWork = append(s.inWork, false)
	s.baseTerms += len(stored)
	s.rowTerms += len(row.idx)
	// Bill the new row against the resource budget: tableau growth is a
	// known memory blow-up site. A trip stops the Ctx; the next Check
	// observes it and returns a budget conflict, so the caller unwinds
	// with UNKNOWN rather than growing the tableau further.
	s.Ctx.Charge("simplex tableau", int64(len(row.idx)+len(stored)))
	return id
}

// refactorize rebuilds the tableau from the slack definitions, undoing
// accumulated pivot fill-in: every slack becomes basic again, every
// problem variable nonbasic. Problem variables whose current value
// drifted outside their bounds (they were basic) are clamped back,
// propagating through the fresh rows.
func (s *Solver) refactorize() {
	for r := range s.rows {
		s.rows[r] = nil
	}
	for v := range s.cols {
		s.cols[v] = s.cols[v][:0]
	}
	s.rowTerms = 0
	ids := make([]int, 0, len(s.defs))
	for id := range s.defs {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	var rc rval
	for _, id := range ids {
		def := s.defs[id]
		vs := make([]int, 0, len(def))
		for v := range def {
			vs = append(vs, v)
		}
		sort.Ints(vs)
		row := &srow{
			idx:  make([]int32, 0, len(def)),
			coef: make([]rval, 0, len(def)),
		}
		var val rval
		val.setInt64(0)
		for _, v := range vs {
			rc.setBigInt(def[v])
			row.idx = append(row.idx, int32(v))
			row.coef = append(row.coef, rval{})
			row.coef[len(row.coef)-1].set(&rc)
			s.colAdd(v, id)
			val.addMul(&rc, &s.beta[v])
		}
		s.rows[id] = row
		s.rowTerms += len(row.idx)
		s.beta[id].set(&val)
		s.enqueue(id)
	}
	// Restore the nonbasic-within-bounds invariant for problem vars.
	for v := 0; v < s.n; v++ {
		if _, isSlack := s.defs[v]; isSlack {
			continue
		}
		if s.lower[v].set && s.beta[v].cmp(&s.lower[v].val) < 0 {
			s.update(v, &s.lower[v].val)
		} else if s.upper[v].set && s.beta[v].cmp(&s.upper[v].val) > 0 {
			s.update(v, &s.upper[v].val)
		}
	}
}

// maybeRefactorize rebuilds the tableau when fill-in has grown it far
// beyond its definition size, at most once per pivot interval (frequent
// rebuilds would discard useful basis progress).
func (s *Solver) maybeRefactorize() {
	if s.Pivots-s.lastRefactor < 2000 { //lint:nooverflow Pivots is a monotone counter far below int64 range
		return
	}
	if s.rowTerms > 6*s.baseTerms+1024 {
		s.refactorize()
		s.Refactors++ //lint:nooverflow diagnostic counter, bounded by Pivots/2000
		s.lastRefactor = s.Pivots
	}
}

// enqueue puts basic variable v on the worklist unless it is there.
func (s *Solver) enqueue(v int) {
	if !s.inWork[v] {
		s.inWork[v] = true
		s.work = append(s.work, int32(v))
	}
}

func (s *Solver) colAdd(v, row int) {
	s.cols[v] = append(s.cols[v], int32(row))
}

func (s *Solver) colDel(v, row int) {
	c := s.cols[v]
	for p, r := range c {
		if r == int32(row) {
			c[p] = c[len(c)-1]
			s.cols[v] = c[:len(c)-1]
			return
		}
	}
}

// Push saves the current bound state so a later Pop can restore it.
func (s *Solver) Push() {
	s.frames = append(s.frames, len(s.undo))
}

// Pop restores the bounds saved by the matching Push by replaying the
// undo trail. The tableau and assignment are unchanged (rows are
// equivalences and the assignment satisfied the tighter bounds, hence
// also the restored looser ones when the frame was feasible).
func (s *Solver) Pop() {
	mark := s.frames[len(s.frames)-1]
	s.frames = s.frames[:len(s.frames)-1]
	for i := len(s.undo) - 1; i >= mark; i-- {
		c := s.undo[i]
		if c.upper {
			s.upper[c.v] = c.old
		} else {
			s.lower[c.v] = c.old
		}
	}
	s.undo = s.undo[:mark]
}

// Conflict is a set of atom tags whose conjunction is infeasible. If
// Tainted is true the conflict involves an internal bound (NoTag) and
// the tags alone do not explain the infeasibility.
type Conflict struct {
	Tags    []int
	Tainted bool
	// Budget is true when the conflict is not a real infeasibility but
	// an exhausted pivot budget; the caller must report unknown.
	Budget bool
}

// AssertUpper adds the bound v <= c (tagged with the originating atom).
// It returns a non-nil conflict if the bound contradicts the current
// lower bound of v.
func (s *Solver) AssertUpper(v int, c *big.Rat, tag int) *Conflict {
	var cv rval
	cv.setRat(c)
	return s.assertUpper(v, &cv, tag)
}

// AssertUpperNum is AssertUpper taking a precomputed Num, so hot
// callers (branch and bound, the lia atom dispatcher) assert without
// converting through big.Rat.
func (s *Solver) AssertUpperNum(v int, c Num, tag int) *Conflict {
	return s.assertUpper(v, &c.rv, tag)
}

func (s *Solver) assertUpper(v int, c *rval, tag int) *Conflict {
	if s.lower[v].set && s.lower[v].val.cmp(c) > 0 {
		nb := bound{tag: tag, set: true}
		nb.val.set(c)
		return s.mkConflict([]bound{s.lower[v], nb})
	}
	if s.upper[v].set && s.upper[v].val.cmp(c) <= 0 {
		return nil // existing bound at least as tight
	}
	if len(s.frames) > 0 {
		s.undo = append(s.undo, boundChange{v: v, upper: true, old: s.upper[v]})
	}
	nb := bound{tag: tag, set: true}
	nb.val.set(c)
	s.upper[v] = nb
	if s.rows[v] != nil {
		if s.beta[v].cmp(c) > 0 {
			s.enqueue(v)
		}
	} else if s.beta[v].cmp(c) > 0 {
		s.update(v, c)
	}
	return nil
}

// AssertLower adds the bound v >= c.
func (s *Solver) AssertLower(v int, c *big.Rat, tag int) *Conflict {
	var cv rval
	cv.setRat(c)
	return s.assertLower(v, &cv, tag)
}

// AssertLowerNum is AssertLower taking a precomputed Num.
func (s *Solver) AssertLowerNum(v int, c Num, tag int) *Conflict {
	return s.assertLower(v, &c.rv, tag)
}

func (s *Solver) assertLower(v int, c *rval, tag int) *Conflict {
	if s.upper[v].set && s.upper[v].val.cmp(c) < 0 {
		nb := bound{tag: tag, set: true}
		nb.val.set(c)
		return s.mkConflict([]bound{s.upper[v], nb})
	}
	if s.lower[v].set && s.lower[v].val.cmp(c) >= 0 {
		return nil
	}
	if len(s.frames) > 0 {
		s.undo = append(s.undo, boundChange{v: v, upper: false, old: s.lower[v]})
	}
	nb := bound{tag: tag, set: true}
	nb.val.set(c)
	s.lower[v] = nb
	if s.rows[v] != nil {
		if s.beta[v].cmp(c) < 0 {
			s.enqueue(v)
		}
	} else if s.beta[v].cmp(c) < 0 {
		s.update(v, c)
	}
	return nil
}

func (s *Solver) mkConflict(bs []bound) *Conflict {
	c := &Conflict{}
	seen := make(map[int]bool)
	for _, b := range bs {
		if b.tag == NoTag {
			c.Tainted = true
			continue
		}
		if !seen[b.tag] {
			seen[b.tag] = true
			c.Tags = append(c.Tags, b.tag)
		}
	}
	sort.Ints(c.Tags)
	return c
}

// update sets the value of nonbasic variable j to v, adjusting all
// basic variables whose rows mention j. Adjusted basic variables may
// leave their bounds, so each goes on the worklist.
func (s *Solver) update(j int, v *rval) {
	var theta rval
	theta.sub(v, &s.beta[j])
	for _, r32 := range s.cols[j] {
		r := int(r32)
		row := s.rows[r]
		p := row.find(int32(j))
		if p < 0 {
			continue
		}
		s.beta[r].addMul(&row.coef[p], &theta)
		s.enqueue(r)
	}
	s.beta[j].set(v)
}

// pivotAndUpdate makes nonbasic j basic in place of basic i, setting
// x_i's value to v (one of its violated bounds). Every row it adjusts
// goes on the worklist; i leaves the basis and drops off lazily.
func (s *Solver) pivotAndUpdate(i, j int, v *rval) {
	s.Pivots++ //lint:nooverflow monotone diagnostic counter; budgets trip long before int64 wraps
	rowI := s.rows[i]
	pj := rowI.find(int32(j))
	var theta rval
	theta.sub(v, &s.beta[i])
	theta.div(&theta, &rowI.coef[pj])
	s.beta[i].set(v)
	s.beta[j].add(&theta)
	for _, r32 := range s.cols[j] {
		r := int(r32)
		if r == i {
			continue
		}
		row := s.rows[r]
		p := row.find(int32(j))
		if p < 0 {
			continue
		}
		s.beta[r].addMul(&row.coef[p], &theta)
		s.enqueue(r)
	}
	s.pivot(i, j)
}

// pivot swaps basic i with nonbasic j. The entering j may sit outside
// its bounds, so it goes on the worklist.
func (s *Solver) pivot(i, j int) {
	row := s.rows[i]
	pj := row.find(int32(j))
	// Solve for x_j: x_j = (1/aij) x_i - sum_{k != j} (a_ik/aij) x_k.
	// The transform happens in place: row becomes x_j's row.
	var inv rval
	inv.inv(&row.coef[pj])
	for p := range row.coef {
		if p == pj {
			continue
		}
		row.coef[p].mulNeg(&row.coef[p], &inv)
		k := int(row.idx[p])
		s.colDel(k, i)
		s.colAdd(k, j)
	}
	// Snapshot j's column before clearing it: these are the rows that
	// need x_j substituted away.
	s.colScratch = append(s.colScratch[:0], s.cols[j]...)
	s.cols[j] = s.cols[j][:0]
	// Rotate the j slot to i's sorted position and store 1/aij there.
	// Vacated slots are zeroed so no two slots share a wide pointer.
	ii := int32(i)
	q := pj
	if ii < row.idx[pj] {
		//lint:nopoll bounded: q strictly decreases toward 0
		for q > 0 && row.idx[q-1] > ii {
			q--
		}
		for t := pj; t > q; t-- {
			row.idx[t] = row.idx[t-1]
			row.coef[t] = row.coef[t-1]
			row.coef[t-1] = rval{}
		}
	} else {
		//lint:nopoll bounded: q strictly increases toward len(row.idx)
		for q+1 < len(row.idx) && row.idx[q+1] < ii {
			q++
		}
		for t := pj; t < q; t++ {
			row.idx[t] = row.idx[t+1]
			row.coef[t] = row.coef[t+1]
			row.coef[t+1] = rval{}
		}
	}
	row.idx[q] = ii
	row.coef[q] = inv // inv is dead after this; the slot takes ownership
	s.colAdd(i, j)
	s.rows[j] = row
	s.rows[i] = nil
	s.enqueue(j)
	// Pivot fill-in is the other way the tableau grows; bill the cells
	// so dense instances trip the budget instead of exhausting memory.
	s.Ctx.Charge("simplex tableau", int64(len(row.idx)))

	// Substitute x_j's definition into every other row containing j.
	for _, r32 := range s.colScratch {
		r := int(r32)
		if r == i {
			continue
		}
		rr := s.rows[r]
		prj := rr.find(int32(j))
		if prj < 0 {
			continue
		}
		s.mergeScaled(r, rr, prj, row)
	}
}

// mergeScaled rewrites row rr (basic in r) as rr minus its x_j term
// plus f*src, where f is rr's coefficient at position pj (the x_j term
// being eliminated) and src is x_j's new row. It merges the two sorted
// sparse forms into the solver scratch, swaps the backing arrays, and
// maintains the column index for r. src never contains x_j.
func (s *Solver) mergeScaled(r int, rr *srow, pj int, src *srow) {
	f := &rr.coef[pj] // rr's arrays are read-only until the swap below
	mi := s.mergeIdx[:0]
	mc := s.mergeCoef[:0]
	pa, pb := 0, 0
	//lint:nopoll bounded: two-pointer merge, pa+pb strictly increases every iteration
	for pa < len(rr.idx) || pb < len(src.idx) {
		if pa == pj {
			pa++
			continue
		}
		aLeft := pa < len(rr.idx)
		bLeft := pb < len(src.idx)
		switch {
		case aLeft && (!bLeft || rr.idx[pa] < src.idx[pb]):
			mi = append(mi, rr.idx[pa])
			mc = append(mc, rval{})
			mc[len(mc)-1].set(&rr.coef[pa])
			pa++
		case bLeft && (!aLeft || src.idx[pb] < rr.idx[pa]):
			// A variable new to this row; f and src coefficients are
			// nonzero, so the product cannot cancel.
			mi = append(mi, src.idx[pb])
			mc = append(mc, rval{})
			mc[len(mc)-1].mul(f, &src.coef[pb])
			s.colAdd(int(src.idx[pb]), r)
			pb++
		default: // same variable in both
			mc = append(mc, rval{})
			d := &mc[len(mc)-1]
			d.set(&rr.coef[pa])
			d.addMul(f, &src.coef[pb])
			if d.sign() == 0 {
				mc = mc[:len(mc)-1]
				s.colDel(int(rr.idx[pa]), r)
			} else {
				mi = append(mi, rr.idx[pa])
			}
			pa++
			pb++
		}
	}
	// Swap: the merged form becomes the row; the row's old arrays become
	// the next merge's scratch. Every merged slot was written via
	// set/mul (deep copies), so no slot shares a wide with the old row.
	oldIdx, oldCoef := rr.idx, rr.coef
	s.rowTerms += len(mi) - len(oldIdx)
	rr.idx, rr.coef = mi, mc
	s.mergeIdx, s.mergeCoef = oldIdx[:0], oldCoef[:0]
}

// Check restores feasibility of the current bounds. It returns nil on
// success, or a conflict explaining infeasibility. On success every
// variable's value (Value) respects its bounds.
func (s *Solver) Check() *Conflict {
	if len(s.work) == 0 {
		return nil
	}
	s.maybeRefactorize()
	pivotsAtStart := s.Pivots
	// Heuristic rule (largest violation) first; pure Bland's rule after
	// a while to guarantee termination despite potential cycling.
	blandAfter := pivotsAtStart + 500 //lint:nooverflow monotone counter far below int64 range
	var viol, worst rval
	for {
		if s.PivotBudget > 0 && s.Pivots-pivotsAtStart > s.PivotBudget { //lint:nooverflow monotone counter difference
			return &Conflict{Tainted: true, Budget: true}
		}
		if s.Ctx.Poll() {
			return &Conflict{Tainted: true, Budget: true}
		}
		bland := s.Pivots >= blandAfter
		i, needLower := s.selectViolated(bland, &viol, &worst)
		if i == -1 {
			return nil
		}
		row := s.rows[i]
		// Eligible nonbasic selection: under Bland's rule the smallest
		// index (termination guarantee); otherwise the one appearing in
		// the fewest rows (Markowitz-style, minimizes pivot fill-in).
		// Rows are sorted by variable id, so the ascending scan gives
		// smallest-index tie-breaks for free.
		j := -1
		jCost := 0
		for p, k32 := range row.idx {
			k := int(k32)
			sg := row.coef[p].sign()
			var ok bool
			if needLower {
				// x_i must increase.
				ok = sg > 0 && (!s.upper[k].set || s.beta[k].cmp(&s.upper[k].val) < 0) ||
					sg < 0 && (!s.lower[k].set || s.beta[k].cmp(&s.lower[k].val) > 0)
			} else {
				// x_i must decrease.
				ok = sg < 0 && (!s.upper[k].set || s.beta[k].cmp(&s.upper[k].val) < 0) ||
					sg > 0 && (!s.lower[k].set || s.beta[k].cmp(&s.lower[k].val) > 0)
			}
			if !ok {
				continue
			}
			if bland {
				j = k
				break // first eligible in ascending order is the smallest
			}
			cost := len(s.cols[k])
			if j == -1 || cost < jCost {
				j, jCost = k, cost
			}
		}
		if j == -1 {
			// Infeasible: explain with the bound of i and the blocking
			// bounds of all row variables, in ascending variable order.
			bs := make([]bound, 0, len(row.idx)+1)
			if needLower {
				bs = append(bs, s.lower[i])
			} else {
				bs = append(bs, s.upper[i])
			}
			for p, k32 := range row.idx {
				k := int(k32)
				pos := row.coef[p].sign() > 0
				if needLower == pos {
					bs = append(bs, s.upper[k])
				} else {
					bs = append(bs, s.lower[k])
				}
			}
			return s.mkConflict(bs)
		}
		if needLower {
			s.pivotAndUpdate(i, j, &s.lower[i].val)
		} else {
			s.pivotAndUpdate(i, j, &s.upper[i].val)
		}
	}
}

// selectViolated picks the basic variable Check repairs next and
// reports whether it lies below its lower bound; it returns -1 when no
// basic variable is out of bounds. Only the worklist is scanned, and
// entries that are nonbasic or within their bounds are dropped from it.
// The rule is the largest violation, ties going to the smallest id, or
// under Bland's rule the smallest violated id. The worklist is
// unordered, so both tie-breaks compare ids explicitly. viol and worst
// are the caller's scratch.
func (s *Solver) selectViolated(bland bool, viol, worst *rval) (int, bool) {
	i := -1
	var needLower bool
	kept := s.work[:0]
	for _, r32 := range s.work {
		r := int(r32)
		var below bool
		switch {
		case s.rows[r] == nil:
			s.inWork[r] = false
			continue
		case s.lower[r].set && s.beta[r].cmp(&s.lower[r].val) < 0:
			below = true
		case !(s.upper[r].set && s.beta[r].cmp(&s.upper[r].val) > 0):
			s.inWork[r] = false
			continue
		}
		kept = append(kept, r32)
		if bland {
			if i == -1 || r < i {
				i, needLower = r, below
			}
			continue
		}
		if below {
			viol.sub(&s.lower[r].val, &s.beta[r])
		} else {
			viol.sub(&s.beta[r], &s.upper[r].val)
		}
		if i != -1 {
			if c := viol.cmp(worst); c < 0 || c == 0 && r > i {
				continue
			}
		}
		worst.set(viol)
		i, needLower = r, below
	}
	s.work = kept
	return i, needLower
}

// Value returns the current value of variable v as a fresh big.Rat.
// Valid after a successful Check.
func (s *Solver) Value(v int) *big.Rat {
	return s.beta[v].rat()
}

// ValueIsInt reports whether variable v currently has an integer value,
// without materializing a big.Rat.
func (s *Solver) ValueIsInt(v int) bool {
	return s.beta[v].isInt()
}

// ValueFloor returns floor(value of v) as a Num, allocation-free on the
// fast path.
func (s *Solver) ValueFloor(v int) Num {
	var n Num
	x := &s.beta[v]
	if !x.isWide {
		q := x.n / x.d
		if x.n%x.d != 0 && x.n < 0 {
			q-- //lint:nooverflow a nonzero remainder implies d >= 2, so |q| < 2^62
		}
		n.rv.setInt64(q)
		return n
	}
	var f big.Int
	x.floorInt(&f)
	n.rv.setBigInt(&f)
	return n
}

// ValueInt returns the current (integer) value of v as a fresh big.Int.
// The caller must know the value is integral (ValueIsInt).
func (s *Solver) ValueInt(v int) *big.Int {
	return s.beta[v].intInto(new(big.Int))
}

// IsBasic reports whether v is currently basic (useful in tests).
func (s *Solver) IsBasic(v int) bool {
	return s.rows[v] != nil
}

package lia

import (
	"math/big"
	"sort"

	"repro/internal/engine"
	"repro/internal/sat"
	"repro/internal/simplex"
)

// Result is the outcome of Solve.
type Result int

// Solve outcomes.
const (
	ResUnsat Result = iota
	ResSat
	ResUnknown
)

func (r Result) String() string {
	switch r {
	case ResUnsat:
		return "unsat"
	case ResSat:
		return "sat"
	case ResUnknown:
		return "unknown"
	}
	return "?"
}

// Options tune the DPLL(T) search. The zero value selects defaults.
type Options struct {
	// Ctx, when non-nil, carries the deadline and cancellation flag
	// (polled inside the SAT and simplex hot loops) and the statistics
	// tree the search records into. A stopped context aborts the search
	// with ResUnknown.
	Ctx *engine.Ctx
	// SatConflictBudget bounds conflicts per SAT call.
	SatConflictBudget int64
	// BBNodeBudget bounds branch-and-bound nodes per final check.
	BBNodeBudget int
	// PivotBudget bounds simplex pivots per consistency check.
	PivotBudget int64
	// OnModel, when set, screens each candidate model. Returning nil
	// accepts the model; returning a formula rejects it and conjoins
	// the formula as a lemma (the lemma must be satisfied by every
	// intended solution, or Solve's answers become unsound). Used for
	// lazy constraint generation such as connectivity cuts.
	OnModel func(Model) Formula
}

func (o *Options) defaults() Options {
	r := Options{}
	if o != nil {
		r = *o
	}
	if r.SatConflictBudget == 0 {
		r.SatConflictBudget = 2000000
	}
	if r.BBNodeBudget == 0 {
		r.BBNodeBudget = 6000
	}
	if r.PivotBudget == 0 {
		r.PivotBudget = 2000000
	}
	return r
}

// atomRec is one canonical theory atom: comb <= Bound (upper) or comb
// >= Bound (lower), where comb is identified by exprKey.
type atomRec struct {
	exprKey string
	bound   *big.Int
	upper   bool
	satVar  int
	// posNum/negNum are the bound precomputed as simplex Nums, so each
	// assert is a machine-word comparison instead of fresh big.Rat and
	// big.Int allocations: posNum is the bound itself (positive
	// polarity); negNum is the negated atom's bound (bound+1 for upper
	// atoms asserted as lower bounds, bound-1 for lower atoms asserted
	// as upper bounds).
	posNum simplex.Num
	negNum simplex.Num
}

type exprRec struct {
	def  map[Var]*big.Int
	vars []Var
	sv   int // simplex variable (original var or slack), -1 until built
}

// dpllt is the online DPLL(T) engine: it implements sat.TheoryClient,
// streaming atom assignments into a Dutertre–de Moura simplex whose
// bound frames mirror the SAT decision levels, learning conflict
// clauses from Farkas explanations, running branch-and-bound for
// integrality plus lazy lemma generation at complete assignments.
type dpllt struct {
	opts  Options
	sat   *sat.Solver
	atoms []atomRec
	byKey map[string]int // canonical atom key -> atom index
	exprs map[string]*exprRec
	vars  map[Var]bool // all theory variables

	sx            *simplex.Solver
	intVars       []int
	intVarSet     map[int]bool
	identityLimit int         // lia vars below this map to equal simplex ids
	extraSv       map[Var]int // simplex ids of later-arriving variables
	atomOfVar     map[int]int // sat var -> atom index

	assertedPol []int8 // 0 unasserted, 1 true, 2 false (per atom)
	thTrail     []int  // atom indices in assertion order
	thLevels    []int  // thTrail marks per theory level

	ps         *presolver
	stats      *engine.Stats // the "lia" stats node (nil-safe)
	finalModel Model
	abort      bool // pivot budget exhausted mid-search
}

// Solve decides satisfiability of the quantifier-free LIA formula f
// over integer-valued variables. On ResSat the model satisfies f.
func Solve(f Formula, opts *Options) (Result, Model) {
	o := opts.defaults()
	st := o.Ctx.Stats()
	liaStats := st.Child("lia")

	stopPresolve := liaStats.Time("time.presolve")
	ps := &presolver{}
	g := ps.run(nnf(f, false))
	// Presolve can expose new top-level structure after substitution;
	// re-normalize.
	g = nnf(g, false)
	g = ps.run(g)
	stopPresolve()

	if b, ok := g.(Bool); ok {
		if !bool(b) {
			return ResUnsat, nil
		}
		m := Model{}
		ps.complete(m)
		if !Eval(f, m) {
			return ResUnknown, nil
		}
		return ResSat, m
	}

	d := &dpllt{
		opts:  o,
		sat:   sat.New(),
		byKey: make(map[string]int),
		exprs: make(map[string]*exprRec),
		vars:  make(map[Var]bool),
		ps:    ps,
		stats: liaStats,
	}
	root := d.encode(g, 0)
	d.sat.AddClause(root)
	d.sat.Budget = d.opts.SatConflictBudget
	d.sat.Ctx = d.opts.Ctx
	d.sat.Stats = st.Child("sat")
	d.initSimplex()
	d.atomOfVar = make(map[int]int, len(d.atoms))
	for i, a := range d.atoms {
		d.atomOfVar[a.satVar] = i
	}
	d.assertedPol = make([]int8, len(d.atoms))
	d.sat.Theory = d

	liaStats.Add("atoms", int64(len(d.atoms)))
	stopSearch := liaStats.Time("time.search")
	defer func() {
		stopSearch()
		sxStats := st.Child("simplex")
		sxStats.Add("pivots", d.sx.Pivots)
		sxStats.Add("refactors", d.sx.Refactors)
	}()

	switch d.sat.Solve() {
	case sat.Unsat:
		return ResUnsat, nil
	case sat.Unknown:
		return ResUnknown, nil
	}
	m := d.finalModel
	if m == nil {
		return ResUnknown, nil
	}
	if !Eval(f, m) {
		// Defensive: the final model must satisfy the input.
		return ResUnknown, nil
	}
	return ResSat, m
}

// --- sat.TheoryClient implementation -------------------------------

// TheoryAssert streams one literal into the simplex (cheap bound-vs-
// bound check only; pivoting happens in TheoryCheck).
func (d *dpllt) TheoryAssert(l sat.Lit) []sat.Lit {
	idx, ok := d.atomOfVar[l.Var()]
	if !ok {
		return nil
	}
	pol := !l.Neg()
	d.thTrail = append(d.thTrail, idx)
	if pol {
		d.assertedPol[idx] = 1
	} else {
		d.assertedPol[idx] = 2
	}
	if c := d.assertAtom(idx, pol); c != nil {
		if c.Budget {
			d.abort = true
			return nil
		}
		d.stats.Add("theory.conflicts", 1)
		return d.coreLits(c.Tags)
	}
	return nil
}

// TheoryCheck restores simplex feasibility at a propagation fixpoint.
func (d *dpllt) TheoryCheck() []sat.Lit {
	c := d.sx.Check()
	if c == nil {
		return nil
	}
	if c.Budget {
		d.abort = true
		return nil
	}
	d.stats.Add("theory.conflicts", 1)
	return d.coreLits(c.Tags)
}

// TheoryPush mirrors a new SAT decision level.
func (d *dpllt) TheoryPush() {
	d.sx.Push()
	d.thLevels = append(d.thLevels, len(d.thTrail))
}

// TheoryPop undoes the n most recent levels.
func (d *dpllt) TheoryPop(n int) {
	for ; n > 0; n-- {
		mark := d.thLevels[len(d.thLevels)-1]
		d.thLevels = d.thLevels[:len(d.thLevels)-1]
		for i := len(d.thTrail) - 1; i >= mark; i-- {
			d.assertedPol[d.thTrail[i]] = 0
		}
		d.thTrail = d.thTrail[:mark]
		d.sx.Pop()
	}
}

// TheoryFinal runs integrality (branch and bound) and lazy lemma
// generation on a complete assignment.
func (d *dpllt) TheoryFinal() (sat.FinalResult, []sat.Lit) {
	d.stats.Add("final.checks", 1)
	if d.abort {
		return sat.FinalUnknown, nil
	}
	if d.opts.Ctx.Expired() {
		return sat.FinalUnknown, nil
	}
	bb := &simplex.IntSolver{S: d.sx, IntVars: d.intVars, NodeBudget: d.opts.BBNodeBudget}
	res, model, confl := bb.Solve()
	switch res {
	case simplex.IntUnknown:
		return sat.FinalUnknown, nil
	case simplex.IntSat:
		m := make(Model, len(model))
		for v, x := range model {
			if v < d.identityLimit {
				m[Var(v)] = x
			}
		}
		for v, sv := range d.extraSv {
			if x, ok := model[sv]; ok {
				m[v] = x
			}
		}
		d.ps.complete(m)
		if d.opts.OnModel != nil {
			if lemma := d.opts.OnModel(m); lemma != nil {
				if b, isBool := lemma.(Bool); !isBool || !bool(b) {
					d.stats.Add("lemmas", 1)
					d.addLemma(d.ps.apply(lemma))
					return sat.FinalRestart, nil
				}
			}
		}
		d.finalModel = m
		return sat.FinalOK, nil
	}
	d.stats.Add("final.conflicts", 1)
	var core []int
	if confl != nil && !confl.Tainted && len(confl.Tags) > 0 {
		core = confl.Tags
	} else {
		full := make([]int, 0, len(d.thTrail))
		for i := range d.atoms {
			if d.assertedPol[i] != 0 {
				full = append(full, i)
			}
		}
		var hint []int
		if confl != nil {
			hint = confl.Tags
		}
		core = d.explainTainted(full, hint)
	}
	return sat.FinalConflict, d.coreLits(core)
}

// coreLits maps atom indices to the currently-true literals that
// asserted them.
func (d *dpllt) coreLits(tags []int) []sat.Lit {
	out := make([]sat.Lit, 0, len(tags))
	for _, t := range tags {
		switch d.assertedPol[t] {
		case 1:
			out = append(out, sat.MkLit(d.atoms[t].satVar, false))
		case 2:
			out = append(out, sat.MkLit(d.atoms[t].satVar, true))
		default:
			// A tag for a bound that is not currently asserted cannot
			// occur: simplex bounds are popped with their frames.
			// contract: simplex bounds are popped with their frames.
			panic("lia: conflict tag for unasserted atom")
		}
	}
	return out
}

// --- construction ---------------------------------------------------

// svOf maps a theory variable to its simplex variable id, allocating
// one for variables that arrived after initSimplex (lemma variables).
func (d *dpllt) svOf(v Var) int {
	if int(v) < d.identityLimit {
		return int(v)
	}
	if sv, ok := d.extraSv[v]; ok {
		return sv
	}
	sv := d.sx.NumVars()
	d.sx.EnsureVars(sv + 1)
	d.extraSv[v] = sv
	d.registerIntVar(sv)
	return sv
}

func (d *dpllt) registerIntVar(sv int) {
	if d.intVarSet == nil {
		d.intVarSet = make(map[int]bool)
	}
	if !d.intVarSet[sv] {
		d.intVarSet[sv] = true
		d.intVars = append(d.intVars, sv)
	}
}

// addLemma conjoins a lazily generated lemma: it is normalized, encoded
// incrementally into the SAT solver, and any new linear combinations
// get simplex variables. Adding clauses resets the SAT solver (and thus
// the theory frames) to decision level zero.
func (d *dpllt) addLemma(lemma Formula) {
	g := nnf(lemma, false)
	root := d.encode(g, 0)
	d.sat.AddClause(root)
	d.wireNewAtoms()
}

// sortedVars returns the keys of a variable set in increasing order, so
// that iteration order (and everything downstream of it: simplex ids,
// branch-and-bound order, model values) is deterministic.
func sortedVars(set map[Var]bool) []Var {
	out := make([]Var, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// encode performs polarity-aware (positive-only; the input is in NNF)
// Tseitin conversion and returns the literal representing f.
func (d *dpllt) encode(f Formula, depth int) sat.Lit {
	checkFormulaDepth(depth)
	// The CNF is a known blow-up site: every node allocates a SAT
	// variable and clauses. Bill the node; on a budget trip stop
	// descending and return a fresh unconstrained literal. Freeing a
	// positive-polarity subformula only weakens the encoding, so an
	// UNSAT of the truncated CNF still implies UNSAT of f — and a SAT
	// model is validated against the original formula before being
	// trusted, so truncation can only degrade the verdict to UNKNOWN.
	if d.opts.Ctx.Charge("lia cnf", 1) {
		return sat.MkLit(d.sat.NewVar(), false)
	}
	switch t := f.(type) {
	case Bool:
		v := d.sat.NewVar()
		d.sat.AddClause(sat.MkLit(v, !bool(t)))
		return sat.MkLit(v, false)
	case *Atom:
		return sat.MkLit(d.atomVar(t.E), false)
	case *NAry:
		x := d.sat.NewVar()
		xl := sat.MkLit(x, false)
		if t.Op == OpAnd {
			for _, a := range t.Args {
				d.sat.AddClause(xl.Flip(), d.encode(a, depth+1))
			}
		} else {
			clause := make([]sat.Lit, 0, len(t.Args)+1)
			clause = append(clause, xl.Flip())
			for _, a := range t.Args {
				clause = append(clause, d.encode(a, depth+1))
			}
			d.sat.AddClause(clause...)
		}
		return xl
	}
	// contract: encode is only called on NNF output.
	panic("lia: unexpected node in encode (input not in NNF?)")
}

// atomVar interns the LE atom e <= 0 and returns its SAT variable.
func (d *dpllt) atomVar(e *LinExpr) int {
	key, def, bound, upper := canonAtom(e)
	full := key + "|" + bound.String()
	if upper {
		full += "|u"
	} else {
		full += "|l"
	}
	if i, ok := d.byKey[full]; ok {
		return d.atoms[i].satVar
	}
	if _, ok := d.exprs[key]; !ok {
		vars := make([]Var, 0, len(def))
		for v := range def {
			vars = append(vars, v)
			d.vars[v] = true
		}
		sort.Slice(vars, func(i, j int) bool { return vars[i] < vars[j] })
		d.exprs[key] = &exprRec{def: def, vars: vars, sv: -1}
	}
	v := d.sat.NewVar()
	pos := simplex.NumFromBigInt(bound)
	neg := pos.AddInt64(-1)
	if upper {
		neg = pos.AddInt64(1)
	}
	d.atoms = append(d.atoms, atomRec{
		exprKey: key, bound: bound, upper: upper, satVar: v,
		posNum: pos, negNum: neg,
	})
	d.byKey[full] = len(d.atoms) - 1
	return v
}

// initSimplex builds the persistent simplex: one variable per theory
// variable, one slack per distinct linear combination.
func (d *dpllt) initSimplex() {
	maxVar := -1
	for v := range d.vars {
		if int(v) > maxVar {
			maxVar = int(v)
		}
	}
	d.identityLimit = maxVar + 1
	d.extraSv = make(map[Var]int)
	d.sx = simplex.New(maxVar + 1)
	d.sx.PivotBudget = d.opts.PivotBudget
	d.sx.Ctx = d.opts.Ctx
	for _, v := range sortedVars(d.vars) {
		d.registerIntVar(int(v))
	}
	d.defineExprs()
}

// defineExprs gives every not-yet-built linear combination a simplex
// variable (the variable itself for single unit terms, a slack
// otherwise). Called at init and again after lemma encoding.
func (d *dpllt) defineExprs() {
	keys := make([]string, 0, len(d.exprs))
	for k := range d.exprs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		er := d.exprs[k]
		if er.sv >= 0 {
			continue
		}
		if len(er.def) == 1 {
			v := er.vars[0]
			if er.def[v].Cmp(oneInt) == 0 {
				er.sv = d.svOf(v)
				continue
			}
		}
		// Iterate er.vars, not er.def: svOf allocates simplex ids for
		// late-arriving variables, so the visit order must be fixed.
		idef := make(map[int]*big.Int, len(er.def))
		for _, v := range er.vars {
			idef[d.svOf(v)] = er.def[v]
		}
		er.sv = d.sx.DefineSlack(idef)
	}
}

// assertAtom asserts atom i with the given polarity into the current
// simplex frame.
func (d *dpllt) assertAtom(i int, polarity bool) *simplex.Conflict {
	a := &d.atoms[i]
	sv := d.exprs[a.exprKey].sv
	if polarity {
		// The atom's own direction with its own bound.
		if a.upper {
			return d.sx.AssertUpperNum(sv, a.posNum, i)
		}
		return d.sx.AssertLowerNum(sv, a.posNum, i)
	}
	// Negation: ¬(comb <= b) is comb >= b+1; ¬(comb >= b) is
	// comb <= b-1. negNum carries the adjusted bound.
	if a.upper {
		return d.sx.AssertLowerNum(sv, a.negNum, i)
	}
	return d.sx.AssertUpperNum(sv, a.negNum, i)
}

// --- tainted-core explanation ---------------------------------------

// explainTainted turns an unexplained (full assignment) integer
// conflict into a small core: the branch-and-bound tag hint is verified
// first; failing that, geometric-chunk deletion shrinks the full set.
// Subset checks run on a scratch simplex so the search tableau and its
// frames stay untouched.
func (d *dpllt) explainTainted(core, hint []int) []int {
	checks := 0
	const maxChecks = 48
	if len(hint) > 0 && len(hint) < len(core) {
		if inf, sub := d.subsetCheck(hint); inf {
			checks++
			if len(sub) > 0 && len(sub) < len(hint) {
				hint = sub
			}
			return d.chunkShrink(hint, maxChecks-checks)
		}
		checks++
	}
	return d.chunkShrink(core, maxChecks-checks)
}

// chunkShrink performs deletion-based core shrinking with geometrically
// decreasing chunk sizes, adopting any smaller sub-core reported by the
// re-checks.
func (d *dpllt) chunkShrink(core []int, maxChecks int) []int {
	cur := append([]int(nil), core...)
	checks := 0
	for chunk := (len(cur) + 1) / 2; chunk >= 1 && checks < maxChecks; chunk /= 2 {
		for i := 0; i < len(cur) && checks < maxChecks && len(cur) > 1; {
			end := i + chunk
			if end > len(cur) {
				end = len(cur)
			}
			trial := make([]int, 0, len(cur)-(end-i))
			trial = append(trial, cur[:i]...)
			trial = append(trial, cur[end:]...)
			if len(trial) == 0 {
				break
			}
			inf, sub := d.subsetCheck(trial)
			checks++
			if !inf {
				i = end
				continue
			}
			if len(sub) > 0 && len(sub) < len(trial) {
				cur = append(cur[:0], sub...)
				i = 0
				continue
			}
			cur = trial
		}
	}
	return cur
}

// subsetCheck tests integer feasibility of a subset of the currently
// asserted atoms on a scratch simplex; when infeasible it may return a
// smaller verified core.
func (d *dpllt) subsetCheck(subset []int) (infeasible bool, subcore []int) {
	scratch, intVars, c := d.subsetScratch(subset)
	if c == nil {
		bb := &simplex.IntSolver{S: scratch, IntVars: intVars, NodeBudget: d.opts.BBNodeBudget / 8}
		var res simplex.IntResult
		res, _, c = bb.Solve()
		if res != simplex.IntUnsat {
			return false, nil
		}
	}
	if c != nil && !c.Tainted {
		return true, c.Tags
	}
	return true, nil
}

// subsetScratch builds subsetCheck's scratch simplex with the subset's
// atoms asserted and returns it with its integer variables, or with
// the conflict an assert raised.
//
// The scratch tableau is as wide as the subset, not the search: the
// problem variables of the subset's expressions are numbered 0..m-1 in
// the order of their search-tableau ids, and slacks follow in
// definition order. The numbering keeps every id comparison (Bland's
// rule, the Markowitz and largest-violation tie-breaks, the branch
// order), so the pivots and cores are those of a full-width scratch.
func (d *dpllt) subsetScratch(subset []int) (*simplex.Solver, []int, *simplex.Conflict) {
	local := make(map[int]int)
	var ids []int
	for _, i := range subset {
		for _, v := range d.exprs[d.atoms[i].exprKey].vars {
			sv := d.svOf(v)
			if _, ok := local[sv]; !ok {
				local[sv] = -1
				ids = append(ids, sv)
			}
		}
	}
	sort.Ints(ids)
	intVars := make([]int, len(ids))
	for k, sv := range ids {
		local[sv] = k
		intVars[k] = k
	}
	scratch := simplex.New(len(ids))
	scratch.PivotBudget = d.opts.PivotBudget / 4
	scratch.Ctx = d.opts.Ctx
	slackOf := make(map[string]int)
	for _, i := range subset {
		a := d.atoms[i]
		er := d.exprs[a.exprKey]
		sv, ok := slackOf[a.exprKey]
		if !ok {
			if len(er.def) == 1 {
				v := er.vars[0]
				if er.def[v].Cmp(oneInt) == 0 {
					sv = local[d.svOf(v)]
					ok = true
				}
			}
			if !ok {
				idef := make(map[int]*big.Int, len(er.def))
				for _, v := range er.vars {
					idef[local[d.svOf(v)]] = er.def[v]
				}
				sv = scratch.DefineSlack(idef)
			}
			slackOf[a.exprKey] = sv
		}
		pol := d.assertedPol[i] == 1
		var c *simplex.Conflict
		switch {
		case pol && a.upper:
			c = scratch.AssertUpperNum(sv, a.posNum, i)
		case pol:
			c = scratch.AssertLowerNum(sv, a.posNum, i)
		case a.upper:
			c = scratch.AssertLowerNum(sv, a.negNum, i)
		default:
			c = scratch.AssertUpperNum(sv, a.negNum, i)
		}
		if c != nil {
			return scratch, intVars, c
		}
	}
	return scratch, intVars, nil
}

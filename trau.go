// Package trau is a Go reproduction of "Efficient Handling of
// String-Number Conversion" (Abdulla et al., PLDI 2020): a string
// constraint solver built on parametric flat automata (PFA) that
// handles word equations, regular membership, length arithmetic, and —
// its distinguishing feature — the string-number conversions
// toNum/toStr efficiently through numeric PFAs.
//
// The solver decides conjunctions of string constraints in two phases:
// a sound over-approximation that can prove UNSAT, and a refinement
// loop of PFA-based under-approximations whose flattened linear-
// arithmetic formulas can prove SAT with a concrete, validated model.
//
// Quick start:
//
//	s := trau.NewSolver()
//	x := s.StrVar("x")
//	n := s.IntVar("n")
//	s.Require(trau.ToNum(n, x))          // n = toNum(x)
//	s.Require(trau.IntEq(trau.IntVal(n), trau.IntConst(42)))
//	s.Require(trau.LenEq(s.Len(x), trau.IntConst(4)))
//	res := s.Solve()                      // SAT: x = "0042"
//
// The heavy lifting lives in the internal packages: strcon (constraint
// language and validator), pfa (parametric flat automata, §5–§8),
// flatten (the domain restriction and flattening, §6–§8), overapprox
// (§4), lia/sat/simplex (the DPLL(T) arithmetic backend), and core (the
// decision procedure, §4/§9).
package trau

import (
	"context"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/lia"
	"repro/internal/regex"
	"repro/internal/strcon"
)

// Status is the solver verdict.
type Status = core.Status

// Verdicts.
const (
	StatusUnknown = core.StatusUnknown
	StatusSat     = core.StatusSat
	StatusUnsat   = core.StatusUnsat
)

// StrVar identifies a string variable.
type StrVar = strcon.Var

// IntVar identifies an integer variable.
type IntVar = lia.Var

// IntExpr is a linear integer expression over integer variables and
// string lengths.
type IntExpr = *lia.LinExpr

// Constraint is one string constraint.
type Constraint = strcon.Constraint

// Term is a concatenation of string variables and constants.
type Term = strcon.Term

// Solver accumulates constraints and solves them.
type Solver struct {
	prob *strcon.Problem
	opts core.Options
}

// Result is the solver outcome; on SAT the model is validated.
type Result struct {
	Status Status
	// StrValue and IntValue read the model (only valid on SAT).
	res core.Result
}

// NewSolver returns an empty solver with a 10s default timeout.
func NewSolver() *Solver {
	return &Solver{prob: strcon.NewProblem(), opts: core.Options{Timeout: 10 * time.Second}}
}

// SetTimeout changes the per-Solve wall-clock budget (0 = none).
func (s *Solver) SetTimeout(d time.Duration) { s.opts.Timeout = d }

// SetOptions replaces the full decision-procedure options.
func (s *Solver) SetOptions(o core.Options) { s.opts = o }

// Problem exposes the underlying constraint problem for advanced use.
func (s *Solver) Problem() *strcon.Problem { return s.prob }

// StrVar declares a string variable.
func (s *Solver) StrVar(name string) StrVar { return s.prob.NewStrVar(name) }

// IntVar declares an integer variable.
func (s *Solver) IntVar(name string) IntVar { return s.prob.NewIntVar(name) }

// Len returns the length expression |x|.
func (s *Solver) Len(x StrVar) IntExpr { return lia.V(s.prob.LenVar(x)) }

// Require adds constraints.
func (s *Solver) Require(cs ...Constraint) { s.prob.Add(cs...) }

// CharAt adds y = charAt(x, i) (SMT-LIB str.at semantics) and returns
// the constraint added.
func (s *Solver) CharAt(y, x StrVar, i IntExpr) Constraint {
	c := s.prob.CharAt(y, x, i)
	return c
}

// Substr adds y = substr(x, i, n) (SMT-LIB str.substr semantics).
func (s *Solver) Substr(y, x StrVar, i, n IntExpr) Constraint {
	return s.prob.Substr(y, x, i, n)
}

// Contains returns a constraint that x contains t.
func (s *Solver) Contains(x StrVar, t Term) Constraint { return s.prob.Contains(x, t) }

// PrefixOf returns a constraint that t is a prefix of x.
func (s *Solver) PrefixOf(t Term, x StrVar) Constraint { return s.prob.PrefixOf(t, x) }

// SuffixOf returns a constraint that t is a suffix of x.
func (s *Solver) SuffixOf(t Term, x StrVar) Constraint { return s.prob.SuffixOf(t, x) }

// Solve runs the decision procedure.
func (s *Solver) Solve() *Result {
	r := core.Solve(s.prob, s.opts)
	return &Result{Status: r.Status, res: r}
}

// SolveContext runs the decision procedure under a context.Context: the
// solve observes both ctx's deadline/cancellation and the solver's
// timeout, whichever fires first.
func (s *Solver) SolveContext(ctx context.Context) *Result {
	ec, stop := engine.FromContext(ctx, s.opts.Timeout)
	defer stop()
	r := core.SolveCtx(s.prob, s.opts, ec)
	return &Result{Status: r.Status, res: r}
}

// StrValue reads a string variable from a SAT model.
func (r *Result) StrValue(x StrVar) string {
	if r.res.Model == nil {
		return ""
	}
	return r.res.Model.Str[x]
}

// IntValue reads an integer variable from a SAT model (as int64; use
// Model for big values).
func (r *Result) IntValue(v IntVar) int64 {
	if r.res.Model == nil {
		return 0
	}
	return r.res.Model.Int.Value(v).Int64()
}

// Model exposes the raw validated assignment (nil unless SAT).
func (r *Result) Model() *strcon.Assignment { return r.res.Model }

// Rounds reports how many under-approximation rounds ran.
func (r *Result) Rounds() int { return r.res.Rounds }

// Stats returns the hierarchical statistics tree of the solve (phase
// timers, SAT/simplex counters, flattening sizes). Render it with its
// Write method.
func (r *Result) Stats() *engine.Stats { return r.res.Stats }

// --- constraint builders --------------------------------------------

// V makes a term item from a variable; C from a constant. T builds a
// term.
func V(x StrVar) strcon.Item      { return strcon.TV(x) }
func C(s string) strcon.Item      { return strcon.TC(s) }
func T(items ...strcon.Item) Term { return strcon.T(items...) }

// Eq returns the word equation l = r.
func Eq(l, r Term) Constraint { return &strcon.WordEq{L: l, R: r} }

// Neq returns the word disequation l != r.
func Neq(l, r Term) Constraint { return &strcon.WordNeq{L: l, R: r} }

// InRegex returns x ∈ L(pattern); the pattern uses the dialect of
// internal/regex and the match is anchored.
func InRegex(x StrVar, pattern string) (Constraint, error) {
	nfa, err := regex.Compile(pattern)
	if err != nil {
		return nil, err
	}
	return &strcon.Membership{X: x, A: nfa, Pattern: pattern}, nil
}

// MustInRegex is InRegex for compile-time-known patterns.
func MustInRegex(x StrVar, pattern string) Constraint {
	c, err := InRegex(x, pattern)
	if err != nil {
		// contract: Must* is for compile-time-known patterns.
		panic(err)
	}
	return c
}

// NotInRegex returns x ∉ L(pattern).
func NotInRegex(x StrVar, pattern string) (Constraint, error) {
	nfa, err := regex.Compile(pattern)
	if err != nil {
		return nil, err
	}
	return &strcon.Membership{X: x, A: nfa, Neg: true, Pattern: pattern}, nil
}

// ToNum returns n = toNum(x): the decimal value of x for nonempty digit
// strings, -1 otherwise (paper §3).
func ToNum(n IntVar, x StrVar) Constraint { return &strcon.ToNum{N: n, X: x} }

// ToStr returns x = toStr(n): the canonical decimal numeral of n when
// n >= 0, "" otherwise (SMT-LIB str.from_int).
func ToStr(n IntVar, x StrVar) Constraint { return &strcon.ToStr{N: n, X: x} }

// Arith wraps a linear-arithmetic formula over integer variables and
// lengths as a constraint.
func Arith(f lia.Formula) Constraint { return &strcon.Arith{F: f} }

// IntVal lifts an integer variable to an expression.
func IntVal(v IntVar) IntExpr { return lia.V(v) }

// IntConst lifts a constant to an expression.
func IntConst(k int64) IntExpr { return lia.Const(k) }

// IntEq returns a = b over integer expressions.
func IntEq(a, b IntExpr) Constraint { return Arith(lia.Eq(a, b)) }

// LenEq returns a = b (alias of IntEq, conventional for lengths).
func LenEq(a, b IntExpr) Constraint { return IntEq(a, b) }

// IntLe returns a <= b.
func IntLe(a, b IntExpr) Constraint { return Arith(lia.Le(a, b)) }

// IntLt returns a < b.
func IntLt(a, b IntExpr) Constraint { return Arith(lia.Lt(a, b)) }

// IntGe returns a >= b.
func IntGe(a, b IntExpr) Constraint { return Arith(lia.Ge(a, b)) }

// IntGt returns a > b.
func IntGt(a, b IntExpr) Constraint { return Arith(lia.Gt(a, b)) }

// Or returns the disjunction of constraints (handled by constraint-
// level case splitting in the decision procedure).
func Or(cs ...Constraint) Constraint { return &strcon.OrCon{Args: cs} }

// And returns the conjunction of constraints.
func And(cs ...Constraint) Constraint { return &strcon.AndCon{Args: cs} }

// Package core implements the paper's two-step decision procedure (§4,
// §9): an over-approximation gate that can prove UNSAT, followed by a
// refinement loop of PFA-based under-approximations that can prove SAT.
// Every SAT answer is validated against the concrete evaluator before
// being reported (the validator of §9).
//
// A solve runs on the caller's goroutine. Each refinement round tries
// the case-split branches in order and stops at the first one whose
// flattening is satisfiable, so verdicts and models are identical run
// to run.
package core

import (
	"fmt"
	"time"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/flatten"
	"repro/internal/lia"
	"repro/internal/overapprox"
	"repro/internal/strcon"
)

// Status is the solver verdict.
type Status int

// Solver verdicts.
const (
	StatusUnknown Status = iota
	StatusSat
	StatusUnsat
)

func (s Status) String() string {
	switch s {
	case StatusSat:
		return "sat"
	case StatusUnsat:
		return "unsat"
	case StatusUnknown:
		return "unknown"
	}
	return "?"
}

// Options configure the decision procedure. The zero value uses
// defaults: over-approximation on, incremental refinement, three
// refinement rounds starting from (m, p, q) = (5, 2, 2).
type Options struct {
	// Timeout bounds the whole solve when calling Solve; zero means
	// none. SolveCtx ignores it (the context carries the deadline).
	Timeout time.Duration
	// MaxRounds bounds under-approximation refinement rounds.
	MaxRounds int
	// SkipOverApprox disables the UNSAT gate (for ablation studies).
	SkipOverApprox bool
	// Incremental selects the refinement engine. The zero value
	// (IncrementalOn) keeps one arithmetic solver session alive per
	// case-split branch, so round r+1 reuses round r's learned
	// clauses, activity and simplex state under assumption literals.
	// IncrementalOff re-solves every round cold (the A/B baseline).
	Incremental IncrementalMode
}

// IncrementalMode toggles the incremental refinement engine.
type IncrementalMode int

// Incremental engine modes. The zero value is on.
const (
	IncrementalOn IncrementalMode = iota
	IncrementalOff
)

// Result is the solver outcome. Model is non-nil exactly when Status is
// StatusSat, and has been validated by the concrete evaluator.
type Result struct {
	Status Status
	Model  *strcon.Assignment
	// Rounds is the number of under-approximation rounds executed.
	Rounds int
	// OverApproxDecided reports that the over-approximation already
	// settled the instance (always an UNSAT).
	OverApproxDecided bool
	// ValidationFailed flags an internal soundness problem: a decoded
	// model did not pass the validator (the answer degrades to
	// unknown).
	ValidationFailed bool
	// Reason classifies an UNKNOWN verdict for callers: "deadline",
	// "cancelled", "budget: <site>", "panic: <value>", "validation
	// failed", or "rounds exhausted". Empty for SAT/UNSAT.
	Reason string
	// Fault is the diagnostic of a panic contained at the solve
	// boundary; nil when nothing panicked.
	Fault *fault.Diagnostic
	// Stats is the statistics tree of the solve (never nil).
	Stats *engine.Stats
}

// Solve decides the problem under opts.Timeout. The problem is
// Prepared in place.
func Solve(prob *strcon.Problem, opts Options) Result {
	return SolveCtx(prob, opts, engine.WithTimeout(opts.Timeout))
}

// SolveCtx decides the problem under the given context's deadline and
// cancellation. The problem is Prepared in place.
//
// SolveCtx is a panic boundary: a contract panic anywhere in the
// solver degrades this one solve to UNKNOWN with a Fault diagnostic
// instead of killing the process.
func SolveCtx(prob *strcon.Problem, opts Options, ec *engine.Ctx) Result {
	if ec == nil {
		ec = engine.Background()
	}
	var res Result
	if d := fault.Contain("core.Solve", func() { res = solveCtx(prob, opts, ec) }); d != nil {
		ec.Stats().Add("fault.contained", 1)
		res = Result{Status: StatusUnknown, Reason: "panic: " + d.Value, Fault: d, Stats: ec.Stats()}
	}
	return res
}

func solveCtx(prob *strcon.Problem, opts Options, ec *engine.Ctx) Result {
	st := ec.Stats()
	stopTotal := st.Time("time.total")
	defer stopTotal()

	prob.Prepare()
	original := prob.Constraints

	// abstractUnsat checks a constraint set with the over-approximation.
	abstractUnsat := func(cons []strcon.Constraint) bool {
		oa := overapprox.Abstract(prob, cons, ec)
		res, _ := lia.Solve(oa.Formula, &lia.Options{Ctx: ec, OnModel: oa.OnModel})
		return res == lia.ResUnsat
	}

	if !opts.SkipOverApprox && abstractUnsat(original) {
		return Result{Status: StatusUnsat, OverApproxDecided: true, Stats: st}
	}

	// Case splitting: enumerate the top-level disjunction structure
	// into conjunctive branches, pruning with the over-approximation
	// (this plays the role of the DPLL core "trying another solution
	// branch" in §9). Each surviving branch is then attacked by the
	// PFA refinement loop, round-robin over rounds.
	branches, truncated := splitBranches(original, opts, abstractUnsat, ec)
	st.Add("branches", int64(len(branches)))
	if len(branches) == 0 {
		if truncated || opts.SkipOverApprox {
			return Result{Status: StatusUnknown, Reason: unknownReason(ec), Stats: st}
		}
		// Every branch refuted by a sound over-approximation.
		return Result{Status: StatusUnsat, OverApproxDecided: true, Stats: st}
	}

	params := flatten.Params{M: 5, Loops: 2, LoopLen: 2}
	maxRounds := opts.MaxRounds
	if maxRounds == 0 {
		maxRounds = 3
	}

	states := make([]*branchState, len(branches))
	for i, b := range branches {
		states[i] = &branchState{branch: b}
	}

	out := Result{Status: StatusUnknown, Stats: st}
	for round := 0; round < maxRounds; round++ {
		if ec.Expired() {
			break
		}
		out.Rounds = round + 1
		st.Add("rounds", 1)
		roundCtx := ec.Child(fmt.Sprintf("round%d", round))
		if win := runBranches(prob, states, params, opts, roundCtx); win != nil {
			if win.validated {
				out.Status = StatusSat
				out.Model = win.model
				return out
			}
			out.ValidationFailed = true
			out.Reason = "validation failed"
			return out
		}
		params = params.Refine()
	}
	out.Reason = unknownReason(ec)
	return out
}

// unknownReason classifies an UNKNOWN verdict by why the solve gave
// up, in decreasing order of specificity.
func unknownReason(ec *engine.Ctx) string {
	switch ec.Cause() {
	case engine.CauseBudget:
		if br := ec.BudgetReason(); br != "" {
			return br
		}
		return "budget"
	case engine.CauseDeadline:
		return "deadline"
	case engine.CauseCancelled:
		return "cancelled"
	}
	return "rounds exhausted"
}

// branchState is the per-branch state the refinement loop keeps across
// rounds: the case-split conjuncts, a private problem clone (its own
// lia pool, growing round over round), and — with the incremental
// engine — the persistent arithmetic session.
type branchState struct {
	branch []strcon.Constraint
	bp     *strcon.Problem
	sess   *lia.Session
}

// branchOutcome is the result of flattening and solving one case-split
// branch at one parameter level. hit reports that the flattening was
// satisfiable (the scan stops there, validated or not).
type branchOutcome struct {
	hit       bool
	validated bool
	model     *strcon.Assignment
}

// solveBranch flattens one branch on a private clone of the problem
// (its own lia pool, so a branch's variable numbering does not depend
// on which branches ran before it) and validates any model against the
// full original problem.
//
// With the incremental engine the clone and the arithmetic session
// persist on the branch state across rounds: the flattening of round
// r+1 enters the same solver under a fresh activation literal, reusing
// learned clauses, activity and simplex state (see lia.Session). With
// IncrementalOff every round re-solves cold from a fresh clone.
func solveBranch(prob *strcon.Problem, bs *branchState,
	params flatten.Params, opts Options, ec *engine.Ctx) branchOutcome {
	var res lia.Result
	var m lia.Model
	var fl *flatten.Result
	if opts.Incremental == IncrementalOn {
		if bs.bp == nil {
			bs.bp = prob.WithConstraints(bs.branch)
		}
		fl = flatten.Flatten(bs.bp, bs.branch, params, ec)
		if bs.sess == nil {
			bs.sess = lia.NewSession(&lia.Options{Ctx: ec})
		}
		res, m = bs.sess.SolveRound(fl.Formula, fl.OnModel, ec)
	} else {
		bp := prob.WithConstraints(bs.branch)
		fl = flatten.Flatten(bp, bs.branch, params, ec)
		res, m = lia.Solve(fl.Formula, &lia.Options{Ctx: ec, OnModel: fl.OnModel})
	}
	if res != lia.ResSat {
		// "No solution within the current PFA domains" or unknown;
		// other branches and larger parameters remain.
		return branchOutcome{}
	}
	a, err := fl.Decode(m)
	if err != nil {
		// The flattening was satisfiable but its model cannot be
		// materialized (value past int64, decode cap). Treat it like a
		// failed validation: the verdict degrades to UNKNOWN, it never
		// becomes an UNSAT.
		ec.Stats().Add("decode.rejected", 1)
		return branchOutcome{hit: true}
	}
	if prob.Eval(a) {
		return branchOutcome{hit: true, validated: true, model: a}
	}
	return branchOutcome{hit: true}
}

// runBranches scans the branches in order and returns the first hit,
// or nil when the whole round comes up dry.
func runBranches(prob *strcon.Problem, states []*branchState,
	params flatten.Params, opts Options, ec *engine.Ctx) *branchOutcome {
	for i, bs := range states {
		if ec.Expired() {
			return nil
		}
		out := solveBranch(prob, bs, params, opts, ec.Child(fmt.Sprintf("branch%d", i)))
		if out.hit {
			return &out
		}
	}
	return nil
}

// maxBranches bounds the case-split enumeration.
const maxBranches = 64

// splitBranches expands top-level OrCon constraints into conjunctive
// branches, pruning refuted prefixes with the over-approximation.
// truncated reports that the bound was hit (so an all-branches-refuted
// outcome must not be read as UNSAT).
func splitBranches(cons []strcon.Constraint, opts Options,
	abstractUnsat func([]strcon.Constraint) bool, ec *engine.Ctx) ([][]strcon.Constraint, bool) {
	var base []strcon.Constraint
	var ors []*strcon.OrCon
	for _, c := range cons {
		if o, ok := c.(*strcon.OrCon); ok {
			ors = append(ors, o)
			continue
		}
		base = append(base, c)
	}
	if len(ors) == 0 {
		return [][]strcon.Constraint{cons}, false
	}
	st := ec.Stats()
	var out [][]strcon.Constraint
	truncated := false
	var rec func(d int, chosen []strcon.Constraint)
	rec = func(d int, chosen []strcon.Constraint) {
		if truncated {
			return
		}
		if len(out) >= maxBranches {
			truncated = true
			return
		}
		if d == len(ors) {
			branch := make([]strcon.Constraint, 0, len(base)+len(chosen))
			branch = append(branch, base...)
			branch = append(branch, chosen...)
			out = append(out, branch)
			return
		}
		for _, disjunct := range ors[d].Args {
			if ec.Expired() {
				truncated = true
				return
			}
			next := append(chosen[:len(chosen):len(chosen)], flattenAnd(disjunct)...)
			if !opts.SkipOverApprox {
				// Prune: base + chosen prefix + remaining Ors.
				candidate := make([]strcon.Constraint, 0, len(base)+len(next)+len(ors)-d-1)
				candidate = append(candidate, base...)
				candidate = append(candidate, next...)
				for _, o := range ors[d+1:] {
					candidate = append(candidate, o)
				}
				if abstractUnsat(candidate) {
					st.Add("branches.pruned", 1)
					continue
				}
			}
			rec(d+1, next)
		}
	}
	rec(0, nil)
	return out, truncated
}

// flattenAnd expands nested conjunctions into a flat constraint list.
func flattenAnd(c strcon.Constraint) []strcon.Constraint {
	if a, ok := c.(*strcon.AndCon); ok {
		var out []strcon.Constraint
		for _, arg := range a.Args {
			out = append(out, flattenAnd(arg)...)
		}
		return out
	}
	return []strcon.Constraint{c}
}

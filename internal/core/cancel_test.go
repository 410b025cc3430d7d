package core

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/lia"
	"repro/internal/strcon"
)

// hardProblem builds an instance the refinement loop cannot settle
// quickly (an overlapping-equation system whose flattenings keep
// growing), so a cancelled solve demonstrably aborts mid-search.
func hardProblem() *strcon.Problem {
	prob := strcon.NewProblem()
	x := prob.NewStrVar("x")
	y := prob.NewStrVar("y")
	z := prob.NewStrVar("z")
	prob.Add(
		&strcon.WordEq{L: strcon.T(strcon.TV(x), strcon.TV(y)), R: strcon.T(strcon.TV(y), strcon.TV(z))},
		&strcon.WordNeq{L: strcon.T(strcon.TV(x), strcon.TV(z)), R: strcon.T(strcon.TV(z), strcon.TV(x))},
		&strcon.Arith{F: lia.Ge(lia.V(prob.LenVar(x)), lia.Const(4))},
	)
	return prob
}

func TestCancellationStopsSolve(t *testing.T) {
	before := fault.Snapshot()
	defer fault.CheckLeaks(t, before)
	ec := engine.Background()
	go func() {
		time.Sleep(50 * time.Millisecond)
		ec.Cancel()
	}()
	start := time.Now()
	res := SolveCtx(hardProblem(), Options{MaxRounds: 50}, ec)
	elapsed := time.Since(start)
	if elapsed > 5*time.Second {
		t.Fatalf("cancelled solve took %v, want prompt return", elapsed)
	}
	if res.Status == StatusSat {
		t.Fatalf("cancelled solve claims sat")
	}
	if res.Stats == nil {
		t.Fatalf("Result.Stats must never be nil")
	}
	if ec.TimedOut() {
		t.Fatalf("cancellation misclassified as a deadline expiry")
	}
}

// orProblem builds a disjunctive instance with several case-split
// branches where a middle branch is the satisfiable one.
func orProblem() *strcon.Problem {
	prob := strcon.NewProblem()
	x := prob.NewStrVar("x")
	n := prob.NewIntVar("n")
	var alts []strcon.Constraint
	for _, k := range []int64{7, 21, 52, 90} {
		alts = append(alts, &strcon.Arith{F: lia.EqConst(n, k)})
	}
	prob.Add(
		&strcon.ToNum{N: n, X: x},
		&strcon.Arith{F: lia.EqConst(prob.LenVar(x), 2)},
		// Only n = 52 survives the extra parity-free pin below.
		&strcon.OrCon{Args: alts},
		&strcon.Arith{F: lia.Ge(lia.V(n), lia.Const(30))},
		&strcon.Arith{F: lia.Le(lia.V(n), lia.Const(60))},
	)
	return prob
}

// render flattens a result to a canonical comparable string.
func render(res Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "status=%v rounds=%d oa=%v vf=%v\n",
		res.Status, res.Rounds, res.OverApproxDecided, res.ValidationFailed)
	if res.Model != nil {
		keys := make([]int, 0, len(res.Model.Str))
		for k := range res.Model.Str {
			keys = append(keys, int(k))
		}
		sort.Ints(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, "s%d=%q\n", k, res.Model.Str[strcon.Var(k)])
		}
	}
	return b.String()
}

// wordOrProblem is a second decidable disjunctive instance: the
// disjuncts are word equations rather than arithmetic pins, and two of
// them ("cd" and "zz") are satisfiable.
func wordOrProblem() *strcon.Problem {
	prob := strcon.NewProblem()
	x := prob.NewStrVar("x")
	y := prob.NewStrVar("y")
	var alts []strcon.Constraint
	for _, w := range []string{"aa", "cd", "zz"} {
		alts = append(alts, &strcon.WordEq{L: strcon.T(strcon.TV(x)), R: strcon.T(strcon.TC(w))})
	}
	prob.Add(
		&strcon.OrCon{Args: alts},
		&strcon.WordEq{
			L: strcon.T(strcon.TV(y)),
			R: strcon.T(strcon.TC("c"), strcon.TV(x), strcon.TC("d")),
		},
		&strcon.Arith{F: lia.EqConst(prob.LenVar(y), 4)},
		&strcon.WordNeq{L: strcon.T(strcon.TV(x)), R: strcon.T(strcon.TC("aa"))},
	)
	return prob
}

// caseSplitCases are the disjunctive instances with the witness for x
// (always s0) that the lowest-indexed satisfiable disjunct gives.
var caseSplitCases = []struct {
	build func() *strcon.Problem
	want  string
}{
	{orProblem, `s0="52"`},
	{wordOrProblem, `s0="cd"`},
}

// TestCaseSplitPicksLowestSatisfiableDisjunct requires the model of
// each disjunctive instance to come from its lowest-indexed
// satisfiable disjunct.
func TestCaseSplitPicksLowestSatisfiableDisjunct(t *testing.T) {
	for ci, c := range caseSplitCases {
		got := render(Solve(c.build(), Options{Timeout: 30 * time.Second}))
		if !strings.HasPrefix(got, "status=sat ") || !strings.Contains(got, c.want+"\n") {
			t.Errorf("problem %d: got\n%s\nwant sat with %s", ci, got, c.want)
		}
	}
}

// TestCaseSplitIsRunToRunDeterministic solves each disjunctive
// instance several times and requires identical renders.
func TestCaseSplitIsRunToRunDeterministic(t *testing.T) {
	for ci, c := range caseSplitCases {
		first := render(Solve(c.build(), Options{Timeout: 30 * time.Second}))
		for i := 0; i < 3; i++ {
			if again := render(Solve(c.build(), Options{Timeout: 30 * time.Second})); again != first {
				t.Fatalf("problem %d run %d differs:\n%s\nvs\n%s", ci, i, again, first)
			}
		}
	}
}

func TestStatsTreePopulated(t *testing.T) {
	prob := strcon.NewProblem()
	x := prob.NewStrVar("x")
	n := prob.NewIntVar("n")
	prob.Add(
		&strcon.ToNum{N: n, X: x},
		&strcon.Arith{F: lia.EqConst(n, 1234567)},
	)
	res := Solve(prob, Options{Timeout: 30 * time.Second})
	if res.Status != StatusSat {
		t.Fatalf("got %v, want sat", res.Status)
	}
	st := res.Stats
	if st == nil {
		t.Fatal("nil stats")
	}
	if got := st.Counter("rounds"); got != int64(res.Rounds) {
		t.Fatalf("rounds counter = %d, Result.Rounds = %d", got, res.Rounds)
	}
	if st.Total("pivots") == 0 {
		t.Fatalf("no simplex pivots recorded anywhere in the tree")
	}
	if st.Total("decisions") == 0 {
		t.Fatalf("no SAT decisions recorded anywhere in the tree")
	}
	var b strings.Builder
	st.Write(&b, "solve")
	out := b.String()
	for _, want := range []string{"rounds", "round0", "flatten", "overapprox", "time.total"} {
		if !strings.Contains(out, want) {
			t.Fatalf("stats render missing %q:\n%s", want, out)
		}
	}
}

package bench

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/lia"
	"repro/internal/strcon"
)

// differentialInstances is the cross-engine corpus: every generator of
// the benchmark tables plus the small end of the checkLuhn family.
func differentialInstances() []*Instance {
	var insts []*Instance
	for _, s := range Table1Suites(3) {
		insts = append(insts, s.Instances...)
	}
	for _, s := range Table2Suites(3) {
		insts = append(insts, s.Instances...)
	}
	for k := 2; k <= 4; k++ {
		insts = append(insts, Luhn(k))
	}
	return insts
}

// TestEngineDifferential solves every generator instance with each
// engine of the evaluation. No verdict may contradict the instance's
// ground truth, settled verdicts must agree across engines (an
// incomplete or timed-out engine legitimately answers UNKNOWN where
// another decided), and every SAT model must validate against a fresh
// build of the problem.
func TestEngineDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("differential suite solves the full corpus once per engine")
	}
	const budget = 20 * time.Second
	for _, inst := range differentialInstances() {
		inst := inst
		t.Run(inst.Name, func(t *testing.T) {
			var first core.Status
			var firstBy string
			for _, s := range Solvers() {
				res := s.Run(inst.Build(), engine.WithTimeout(budget))
				checkVerdict(t, inst, s.Name, res)
				if res.Status != core.StatusSat && res.Status != core.StatusUnsat {
					continue
				}
				if firstBy == "" {
					first, firstBy = res.Status, s.Name
				} else if res.Status != first {
					t.Fatalf("%s: %s says %v, %s says %v", inst.Name, s.Name, res.Status, firstBy, first)
				}
			}
		})
	}
}

// checkVerdict asserts one result against the instance's ground truth
// and validates any model on a fresh build.
func checkVerdict(t *testing.T, inst *Instance, who string, res core.Result) {
	t.Helper()
	if inst.Expected == ExpectSat && res.Status == core.StatusUnsat ||
		inst.Expected == ExpectUnsat && res.Status == core.StatusSat {
		t.Fatalf("%s: %s verdict %v contradicts ground truth %v", inst.Name, who, res.Status, inst.Expected)
	}
	if res.Status == core.StatusSat {
		if res.Model == nil {
			t.Fatalf("%s: %s sat without model", inst.Name, who)
		}
		if !inst.Build().Eval(res.Model) {
			t.Fatalf("%s: %s model fails validation", inst.Name, who)
		}
	}
}

// easySat: x ++ "b" = "ab" — a pure word equation every engine settles.
func easySat() *strcon.Problem {
	p := strcon.NewProblem()
	x := p.NewStrVar("x")
	p.Add(&strcon.WordEq{
		L: strcon.Term{{IsVar: true, V: x}, {Const: "b"}},
		R: strcon.Term{{Const: "ab"}},
	})
	return p
}

// easyUnsat: x ++ "a" = "b" — splitting refutes it; the refinement
// loop (whose gate sees consistent lengths) and enumeration can only
// give up.
func easyUnsat() *strcon.Problem {
	p := strcon.NewProblem()
	x := p.NewStrVar("x")
	p.Add(&strcon.WordEq{
		L: strcon.Term{{IsVar: true, V: x}, {Const: "a"}},
		R: strcon.Term{{Const: "b"}},
	})
	return p
}

// TestBackendsAgreeOnEasyInstances runs every engine on a trivially SAT
// and a trivially UNSAT problem: each must find a validating model for
// the first, none may claim SAT on the second, and split — complete on
// pure word equations — must refute it.
func TestBackendsAgreeOnEasyInstances(t *testing.T) {
	refutes := map[string]bool{"split": true}
	for _, s := range Solvers() {
		res := s.Run(easySat(), engine.WithTimeout(10*time.Second))
		if res.Status != core.StatusSat {
			t.Errorf("%s: %v on a satisfiable problem, want sat", s.Name, res.Status)
		} else if res.Model == nil || !easySat().Eval(res.Model) {
			t.Errorf("%s: SAT model missing or invalid", s.Name)
		}

		res = s.Run(easyUnsat(), engine.WithTimeout(10*time.Second))
		switch {
		case res.Status == core.StatusSat:
			t.Errorf("%s: SAT on an unsatisfiable problem", s.Name)
		case refutes[s.Name] && res.Status != core.StatusUnsat:
			t.Errorf("%s: %v on an unsatisfiable problem, want unsat", s.Name, res.Status)
		}
	}
}

// TestEnumNeverUnsat pins the enumeration baseline's contract:
// exhausting a bounded domain is not a refutation, even on problems
// that another engine refutes.
func TestEnumNeverUnsat(t *testing.T) {
	var enum Solver
	for _, s := range Solvers() {
		if s.Name == "enum" {
			enum = s
		}
	}
	if enum.Run == nil {
		t.Fatal("no enum engine among Solvers()")
	}
	// toNum(x) >= 1000 with len(x) <= 3: a magnitude conflict the
	// over-approximation refutes outright.
	magnitude := func() *strcon.Problem {
		p := strcon.NewProblem()
		x := p.NewStrVar("x")
		n := p.NewIntVar("n")
		p.Add(
			&strcon.ToNum{N: n, X: x},
			&strcon.Arith{F: lia.Ge(lia.V(n), lia.Const(1000))},
			&strcon.Arith{F: lia.Le(lia.V(p.LenVar(x)), lia.Const(3))},
		)
		return p
	}
	for _, build := range []func() *strcon.Problem{easyUnsat, magnitude} {
		if res := enum.Run(build(), engine.WithTimeout(10*time.Second)); res.Status == core.StatusUnsat {
			t.Fatal("enum returned UNSAT")
		}
	}
}

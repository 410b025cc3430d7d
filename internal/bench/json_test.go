package bench

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/strcon"
)

// fakeInstance builds a trivial problem carrying n string variables, so
// a fake solver can tell instances apart without solving anything.
func fakeInstance(name string, n int) *Instance {
	return &Instance{
		Name: name,
		Build: func() *strcon.Problem {
			prob := strcon.NewProblem()
			for i := 0; i < n; i++ {
				prob.NewStrVar(fmt.Sprintf("x%d", i))
			}
			return prob
		},
		Expected: ExpectSat,
	}
}

// TestJSONSuiteReportsExcludedTimeouts is the regression test for the
// silent-exclusion bug: aggregate rows drop timed-out runs from the
// statistics means, and before stats_excluded_timeouts a JSON consumer
// could not tell an excluded run from an absent one.
func TestJSONSuiteReportsExcludedTimeouts(t *testing.T) {
	insts := []*Instance{
		fakeInstance("fast-1", 1),
		fakeInstance("slow", 2),
		fakeInstance("fast-2", 3),
	}
	// The fake solver decides instantly except on the 2-variable
	// instance, where it spins until the deadline expires.
	solver := Solver{
		Name: "fake",
		Run: func(p *strcon.Problem, ec *engine.Ctx) core.Result {
			ec.Stats().Add("rounds", 4)
			if p.NumStrVars() == 2 {
				for !ec.Expired() {
					time.Sleep(time.Millisecond)
				}
				return core.Result{Status: core.StatusUnknown}
			}
			return core.Result{Status: core.StatusSat}
		},
	}
	r := RunSuite(insts, solver, 30*time.Millisecond, 1)
	row := jsonSuite("1", "fake-suite", solver.Name, r)

	if row.Instances != 3 {
		t.Fatalf("instances = %d, want 3", row.Instances)
	}
	if row.Timeout != 1 || row.Sat != 2 {
		t.Fatalf("counts = sat %d timeout %d, want 2/1", row.Sat, row.Timeout)
	}
	if row.StatsInstances != 2 {
		t.Fatalf("stats_instances = %d, want 2 (timed-out run excluded)", row.StatsInstances)
	}
	if row.StatsExcludedTimeouts != 1 {
		t.Fatalf("stats_excluded_timeouts = %d, want 1", row.StatsExcludedTimeouts)
	}
	if row.StatsInstances+row.StatsExcludedTimeouts != row.Instances {
		t.Fatalf("stats_instances %d + stats_excluded_timeouts %d != instances %d",
			row.StatsInstances, row.StatsExcludedTimeouts, row.Instances)
	}
	// The means are over the finished runs only: 2 runs x 4 rounds.
	if row.MeanRounds != 4.0 {
		t.Fatalf("mean_rounds = %v, want 4.0 over the 2 finished runs", row.MeanRounds)
	}
}

// TestJSONSuiteNoTimeouts pins the common case: every run finishes, so
// nothing is excluded and the two instance counts coincide.
func TestJSONSuiteNoTimeouts(t *testing.T) {
	insts := []*Instance{fakeInstance("a", 1), fakeInstance("b", 3)}
	solver := Solver{
		Name: "fake",
		Run: func(p *strcon.Problem, ec *engine.Ctx) core.Result {
			return core.Result{Status: core.StatusSat}
		},
	}
	r := RunSuite(insts, solver, time.Second, 1)
	row := jsonSuite("1", "fake-suite", solver.Name, r)
	if row.StatsInstances != 2 || row.StatsExcludedTimeouts != 0 {
		t.Fatalf("stats_instances %d excluded %d, want 2/0",
			row.StatsInstances, row.StatsExcludedTimeouts)
	}
}

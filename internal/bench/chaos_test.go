package bench

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fault"
)

// chaosInstances picks a handful of small, fast, deterministic
// instances with known ground truth for the injection sweep.
func chaosInstances() []*Instance {
	insts := []*Instance{Luhn(3)}
	var sat, unsat *Instance
	for _, in := range pyexLike(7, 8) {
		if sat == nil && in.Expected == ExpectSat {
			sat = in
		}
		if unsat == nil && in.Expected == ExpectUnsat {
			unsat = in
		}
	}
	if sat != nil {
		insts = append(insts, sat)
	}
	if unsat != nil {
		insts = append(insts, unsat)
	}
	return insts
}

// TestChaosInjectionSweep is the fault-containment contract, checked
// deterministically. For each small instance it first solves under a
// counting schedule to learn the baseline verdict and the number N of
// injectable sites visited, then re-solves with each fault kind (panic,
// cancel, budget) injected at the first, middle, and last site. After
// every run it asserts the two invariants the containment design
// guarantees:
//
//   - the verdict never flips SAT<->UNSAT — an injected fault can only
//     degrade it to UNKNOWN, and
//   - no solver goroutine outlives its solve.
func TestChaosInjectionSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep is slow; skipped with -short")
	}
	for _, inst := range chaosInstances() {
		opts := core.Options{MaxRounds: 6}

		counting := fault.Counting()
		ec := engine.Background()
		ec.SetSchedule(counting)
		baseline := core.SolveCtx(inst.Build(), opts, ec)
		if inst.Expected == ExpectSat && baseline.Status != core.StatusSat ||
			inst.Expected == ExpectUnsat && baseline.Status != core.StatusUnsat {
			t.Fatalf("%s: baseline = %v, want %v", inst.Name, baseline.Status, inst.Expected)
		}
		n := counting.Visits()
		if n == 0 {
			t.Fatalf("%s: counting pass saw no injectable sites", inst.Name)
		}

		for _, k := range []uint64{1, n/2 + 1, n} {
			for _, op := range []fault.Op{fault.OpPanic, fault.OpCancel, fault.OpBudget} {
				before := fault.Snapshot()
				sched := fault.At(k, op)
				ec := engine.Background()
				ec.SetSchedule(sched)
				res := core.SolveCtx(inst.Build(), opts, ec)
				if res.Status != core.StatusUnknown && res.Status != baseline.Status {
					t.Errorf("%s inject %v@%d: verdict flipped %v -> %v",
						inst.Name, op, k, baseline.Status, res.Status)
				}
				if res.Status == core.StatusUnknown && res.Reason == "" {
					t.Errorf("%s inject %v@%d: unknown verdict with no reason",
						inst.Name, op, k)
				}
				fault.CheckLeaks(t, before)
			}
		}
	}
}

// TestOverBudgetLuhnDegradesGracefully is the ISSUE's acceptance case:
// a hard instance under a tiny resource budget returns UNKNOWN with a
// "budget: <site>" reason instead of crashing, thrashing, or lying.
func TestOverBudgetLuhnDegradesGracefully(t *testing.T) {
	before := fault.Snapshot()
	ec := engine.Background()
	ec.SetBudget(100)
	res := core.SolveCtx(Luhn(8).Build(), core.Options{MaxRounds: 10}, ec)
	if res.Status != core.StatusUnknown {
		t.Fatalf("over-budget solve = %v, want unknown", res.Status)
	}
	if !strings.HasPrefix(res.Reason, "budget: ") {
		t.Fatalf("over-budget reason = %q, want \"budget: <site>\"", res.Reason)
	}
	if rem, ok := ec.BudgetRemaining(); !ok || rem >= 0 {
		t.Fatalf("budget pool = (%d, %v), want installed and exhausted", rem, ok)
	}
	fault.CheckLeaks(t, before)
}

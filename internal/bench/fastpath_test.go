package bench

import (
	"testing"

	"repro/internal/core"
	"repro/internal/simplex"
)

// solveForced runs one instance with the simplex fast path forced off
// (every rational operation routed through big.Rat) or left in its
// default int64-first configuration.
func solveForced(inst *Instance, slow bool) (core.Result, bool) {
	simplex.ForceSlowPath = slow
	defer func() { simplex.ForceSlowPath = false }()
	return solveMode(inst, core.IncrementalOn)
}

// TestFastPathSlowPathAgreement is the differential gate for the int64
// arithmetic substrate: every generator instance of the benchmark
// tables is solved twice, once on the machine-word fast path and once
// with ForceSlowPath routing all simplex arithmetic through big.Rat.
// Because both paths compute exact rationals, the solver must be
// bit-for-bit deterministic across them: identical verdicts and
// identical witnesses, not merely models that both validate.
func TestFastPathSlowPathAgreement(t *testing.T) {
	for _, inst := range equivInstances() {
		inst := inst
		t.Run(inst.Name, func(t *testing.T) {
			fast, fastTO := solveForced(inst, false)
			slow, slowTO := solveForced(inst, true)
			if fast.Status != slow.Status {
				excused := fast.Status == core.StatusUnknown && fastTO ||
					slow.Status == core.StatusUnknown && slowTO
				if !excused {
					t.Fatalf("%s: fast path %v, slow path %v", inst.Name, fast.Status, slow.Status)
				}
				t.Logf("%s: verdicts differ under timeout (fast %v, slow %v)", inst.Name, fast.Status, slow.Status)
			}
			if fast.Status == core.StatusSat && slow.Status == core.StatusSat {
				if !modelsEqual(fast.Model, slow.Model) {
					t.Fatalf("%s: fast-path witness differs from slow-path witness", inst.Name)
				}
			}
			if fast.Status == core.StatusSat {
				if !inst.Build().Eval(fast.Model) {
					t.Fatalf("%s: shared witness fails concrete validation", inst.Name)
				}
			}
			if inst.Expected == ExpectSat && fast.Status == core.StatusUnsat ||
				inst.Expected == ExpectUnsat && fast.Status == core.StatusSat {
				t.Fatalf("%s: verdict %v contradicts ground truth %v", inst.Name, fast.Status, inst.Expected)
			}
		})
	}
}

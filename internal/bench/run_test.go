package bench

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/strcon"
)

// TestTimeoutClassification pins the TIMEOUT/UNKNOWN split: an instance
// is a TIMEOUT only when its context actually expired, never merely
// because the solver gave up.
func TestTimeoutClassification(t *testing.T) {
	insts := Table1Suites(2)[0].Instances

	giveUp := Solver{Name: "give-up", Run: func(_ *strcon.Problem, _ *engine.Ctx) core.Result {
		return core.Result{Status: core.StatusUnknown}
	}}
	c := RunSuite(insts, giveUp, time.Minute, 1).Counts
	if c.Timeout != 0 || c.Unknown != len(insts) {
		t.Fatalf("instant unknowns classified as %+v, want all UNKNOWN", c)
	}

	spin := Solver{Name: "spin", Run: func(_ *strcon.Problem, ec *engine.Ctx) core.Result {
		for !ec.Poll() {
		}
		return core.Result{Status: core.StatusUnknown}
	}}
	c = RunSuite(insts, spin, 30*time.Millisecond, 1).Counts
	if c.Unknown != 0 || c.Timeout != len(insts) {
		t.Fatalf("deadline-bound unknowns classified as %+v, want all TIMEOUT", c)
	}
}

// TestTableParallelByteIdentical is the -j acceptance check: rendering
// the tables with a worker pool must produce byte-identical output to
// the sequential run, for any worker count.
func TestTableParallelByteIdentical(t *testing.T) {
	suites := []Suite{Table1Suites(3)[1], Table2Suites(3)[0]}
	solvers := Solvers()
	timeout := 20 * time.Second

	var seq bytes.Buffer
	Table(&seq, suites, solvers, timeout, 1)
	for _, workers := range []int{2, 4} {
		var par bytes.Buffer
		Table(&par, suites, solvers, timeout, workers)
		if par.String() != seq.String() {
			t.Fatalf("workers=%d output differs from sequential:\n%s\nvs\n%s",
				workers, par.String(), seq.String())
		}
	}
}

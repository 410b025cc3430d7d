package core

import (
	"testing"
	"time"

	"repro/internal/smtlib"
)

// solveSMT parses src and solves it under timeout.
func solveSMT(t *testing.T, src string, timeout time.Duration) Result {
	t.Helper()
	script, err := smtlib.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return Solve(script.Problem, Options{Timeout: timeout})
}

// TestRegularMembershipInsideDisjunction pins the lazy connectivity
// cuts under a case split. The over-approximation keeps one flow
// product per disjunct; in a model that takes one disjunct, the other
// product's flows are unconstrained and may already satisfy its cut.
// Re-emitting such a cut excludes nothing, so the solver would see the
// same model forever and answer unknown at any deadline.
func TestRegularMembershipInsideDisjunction(t *testing.T) {
	for _, tc := range []struct {
		name, src string
		want      Status
	}{
		{"sat", `(declare-fun x () String)
(assert (or (str.in_re x (str.to_re "ba")) (str.in_re x (str.to_re "cc"))))
(check-sat)`, StatusSat},
		{"unsat", `(declare-fun x () String)
(assert (str.in_re x (str.to_re "ab")))
(assert (or (str.in_re x (str.to_re "ba")) (str.in_re x (str.to_re "cc"))))
(check-sat)`, StatusUnsat},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res := solveSMT(t, tc.src, time.Second)
			if res.Status != tc.want {
				t.Fatalf("got %v (reason %q, rounds %d), want %v",
					res.Status, res.Reason, res.Rounds, tc.want)
			}
		})
	}
}

// TestBranchLevelRefutation pins the case split's per-branch gate: in
// each instance the whole problem passes the over-approximation, but
// every disjunct conflicts with the conjunct outside the disjunction,
// so only gating each branch proves unsat.
func TestBranchLevelRefutation(t *testing.T) {
	for _, tc := range []struct{ name, src string }{
		{"prefix", `(declare-fun x () String)
(assert (str.prefixof "ab" x))
(assert (or (str.prefixof "b" x) (str.prefixof "c" x)))
(check-sat)`},
		{"plus", `(declare-fun x () String)
(assert (str.in_re x (re.+ (str.to_re "a"))))
(assert (or (str.in_re x (re.+ (str.to_re "b"))) (str.in_re x (re.+ (str.to_re "c")))))
(check-sat)`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res := solveSMT(t, tc.src, 5*time.Second)
			if res.Status != StatusUnsat || !res.OverApproxDecided {
				t.Fatalf("got %v overApproxDecided=%v (reason %q), want unsat decided by the over-approximation",
					res.Status, res.OverApproxDecided, res.Reason)
			}
		})
	}
}

package simplex

import (
	"fmt"
	"hash"
	"hash/fnv"
	"math/big"
	"math/rand"
	"sort"
	"testing"
)

// pinnedTrajectories are fingerprints of the random operation script
// below, captured from the full-scan Check (ascending id order over
// every variable) that the violated-row worklist replaced. A change
// that alters any pivot, conflict, value or refactorization breaks
// them. "wide" runs on more than 500 variables; "dense" packs rows over
// 40 problem variables until fill-in triggers an automatic
// refactorization.
var pinnedTrajectories = []struct {
	name                    string
	nProblem, nSlack, ops   int
	seed                    int64
	pivots, refactors       int64
	hash                    uint64
	checks, confls, intSats int
}{
	{"wide", 120, 400, 6000, 20200615, 2212, 0, 0xe7bd6fc6372b2a70, 978, 171, 155},
	{"dense", 40, 40, 10000, 7, 4875, 1, 0x9836a43631b173c1, 1657, 447, 265},
}

// trajectory is the state of one replayed operation script: the
// solver, the script's random source, and the running hash of every
// observable outcome.
type trajectory struct {
	s      *Solver
	rng    *rand.Rand
	h      hash.Hash64
	checks int
	confls int
	isats  int
}

func (tr *trajectory) emit(format string, args ...any) {
	fmt.Fprintf(tr.h, format, args...)
	tr.h.Write([]byte{'\n'})
}

func (tr *trajectory) conflict(c *Conflict) {
	if c == nil {
		tr.emit("ok")
		return
	}
	tr.confls++
	tr.emit("conflict %v tainted=%v budget=%v", c.Tags, c.Tainted, c.Budget)
}

func (tr *trajectory) randomSlack(nProblem int) {
	def := make(map[int]*big.Int)
	for k := 2 + tr.rng.Intn(5); len(def) < k; {
		c := int64(tr.rng.Intn(7) - 3)
		if c == 0 {
			c = 4
		}
		def[tr.rng.Intn(nProblem)] = big.NewInt(c)
	}
	tr.emit("slack %d", tr.s.DefineSlack(def))
}

// runTrajectory replays a seeded mix of DefineSlack, bound asserts,
// Push/Pop, Check, IntSolver.Solve and refactorization, hashing the
// pivot count after each Check, every conflict's tags and flags, and
// every variable's value after each feasible Check. after runs after
// every operation.
func runTrajectory(t *testing.T, nProblem, nSlack, ops int, seed int64, after func(*Solver)) *trajectory {
	t.Helper()
	tr := &trajectory{s: New(nProblem), rng: rand.New(rand.NewSource(seed)), h: fnv.New64a()}
	s := tr.s
	s.PivotBudget = 20000
	for i := 0; i < nSlack; i++ {
		tr.randomSlack(nProblem)
	}
	// A permanent box on the problem variables couples the rows: slack
	// bounds then conflict often enough to exercise the explanations.
	for v := 0; v < nProblem; v++ {
		s.AssertLowerNum(v, NumFromInt64(-2), NoTag)
		s.AssertUpperNum(v, NumFromInt64(2), NoTag)
	}
	after(s)
	for op := 0; op < ops; op++ {
		switch r := tr.rng.Intn(100); {
		case r < 50:
			if len(s.frames) == 0 {
				s.Push()
			}
			// Slacks are basic unless pivoted out, so most bounds land
			// on rows and force pivots.
			v := tr.rng.Intn(s.NumVars())
			if tr.rng.Intn(4) != 0 {
				v = nProblem + tr.rng.Intn(s.NumVars()-nProblem)
			}
			b := NumFromInt64(int64(tr.rng.Intn(25) - 12))
			var c *Conflict
			if tr.rng.Intn(2) == 0 {
				c = s.AssertLowerNum(v, b, op)
			} else {
				c = s.AssertUpperNum(v, b, op)
			}
			tr.emit("assert %d", v)
			tr.conflict(c)
		case r < 66:
			c := s.Check()
			tr.checks++
			tr.emit("check pivots=%d", s.Pivots)
			tr.conflict(c)
			if c == nil {
				for v := 0; v < s.NumVars(); v++ {
					tr.emit("%d=%s", v, s.Value(v).RatString())
				}
			} else if len(s.frames) > 0 && tr.rng.Intn(4) != 0 {
				s.Pop()
			}
		case r < 78:
			if len(s.frames) < 12 {
				s.Push()
			}
		case r < 92:
			if len(s.frames) > 0 {
				s.Pop()
			}
		case r < 95:
			tr.randomSlack(nProblem)
		case r < 98:
			ivs := tr.rng.Perm(nProblem)[:40]
			sort.Ints(ivs)
			bb := &IntSolver{S: s, IntVars: ivs, NodeBudget: 48}
			res, model, c := bb.Solve()
			tr.emit("int %d pivots=%d", res, s.Pivots)
			if res == IntSat {
				tr.isats++
				for _, v := range ivs {
					tr.emit("%d:=%s", v, model[v])
				}
			}
			if res == IntUnsat {
				tr.conflict(c)
			}
		default:
			s.refactorize()
			tr.emit("refactor")
		}
		after(s)
	}
	return tr
}

// TestPivotTrajectoryPinned pins the simplex search itself, not just
// its verdicts: the same script must pivot the same number of times,
// report the same conflicts and reach the same values as the full-scan
// Check did. After every operation it also checks the bookkeeping that
// replaced the full-tableau scans (see checkInvariants).
func TestPivotTrajectoryPinned(t *testing.T) {
	for _, p := range pinnedTrajectories {
		t.Run(p.name, func(t *testing.T) {
			tr := runTrajectory(t, p.nProblem, p.nSlack, p.ops, p.seed, func(s *Solver) { checkInvariants(t, s) })
			s := tr.s
			if testing.Verbose() {
				t.Logf("vars=%d pivots=%d refactors=%d hash=%#x checks=%d conflicts=%d intsats=%d",
					s.NumVars(), s.Pivots, s.Refactors, tr.h.Sum64(), tr.checks, tr.confls, tr.isats)
			}
			if s.Pivots != p.pivots || s.Refactors != p.refactors || tr.h.Sum64() != p.hash ||
				tr.checks != p.checks || tr.confls != p.confls || tr.isats != p.intSats {
				t.Fatalf("trajectory drifted: pivots=%d refactors=%d hash=%#x checks=%d conflicts=%d intsats=%d",
					s.Pivots, s.Refactors, tr.h.Sum64(), tr.checks, tr.confls, tr.isats)
			}
		})
	}
}

// checkInvariants asserts the bookkeeping Check relies on instead of
// scanning the tableau: every basic variable outside its bounds is on
// the worklist, the list and its membership bitmap agree without
// duplicates, and rowTerms counts the entries of all rows.
func checkInvariants(t *testing.T, s *Solver) {
	t.Helper()
	terms := 0
	for _, row := range s.rows {
		if row != nil {
			terms += len(row.idx)
		}
	}
	if terms != s.rowTerms {
		t.Fatalf("rowTerms = %d, rows hold %d entries", s.rowTerms, terms)
	}
	if len(s.inWork) != s.n {
		t.Fatalf("membership bitmap covers %d of %d variables", len(s.inWork), s.n)
	}
	seen := make(map[int32]bool, len(s.work))
	for _, v := range s.work {
		if seen[v] || !s.inWork[v] {
			t.Fatalf("worklist entry %d duplicated or missing from the bitmap", v)
		}
		seen[v] = true
	}
	for v := 0; v < s.n; v++ {
		if s.inWork[v] != seen[int32(v)] {
			t.Fatalf("bitmap marks %d but the worklist does not hold it", v)
		}
		if s.rows[v] == nil {
			continue
		}
		below := s.lower[v].set && s.beta[v].cmp(&s.lower[v].val) < 0
		above := s.upper[v].set && s.beta[v].cmp(&s.upper[v].val) > 0
		if (below || above) && !s.inWork[v] {
			t.Fatalf("basic variable %d violates a bound but is not on the worklist", v)
		}
	}
}

package simplex

import (
	"math/big"
	"testing"
)

// benchTableau builds a solver with nv problem variables and one slack
// per window of w consecutive variables, so columns are shared across
// rows and pivots exercise the substitution merge.
func benchTableau(nv, w int) (*Solver, []int) {
	s := New(nv)
	slacks := make([]int, 0, nv)
	for i := 0; i+w <= nv; i += w / 2 {
		def := make(map[int]*big.Int, w)
		for j := 0; j < w; j++ {
			c := int64(j + 1)
			if (i+j)%2 == 1 {
				c = -c
			}
			def[i+j] = big.NewInt(c)
		}
		slacks = append(slacks, s.DefineSlack(def))
	}
	return s, slacks
}

// BenchmarkPivot measures the raw row-transform + substitution cost of
// one pivot by swapping a basic/nonbasic pair back and forth.
func BenchmarkPivot(b *testing.B) {
	benchmarkPivot(b)
}

// BenchmarkPivotSlowPath is the same workload with every rval routed
// through big.Rat: the A/B pair quantifies the machine-word win.
func BenchmarkPivotSlowPath(b *testing.B) {
	ForceSlowPath = true
	defer func() { ForceSlowPath = false }()
	benchmarkPivot(b)
}

func benchmarkPivot(b *testing.B) {
	s, slacks := benchTableau(32, 8)
	basic, nonb := slacks[0], 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.pivot(basic, nonb)
		basic, nonb = nonb, basic
	}
}

// BenchmarkCheck measures feasibility restoration under alternating
// bound flips: every iteration pushes bounds that violate the current
// assignment, so Check must pivot, then pops them.
func BenchmarkCheck(b *testing.B) {
	benchmarkCheck(b)
}

// BenchmarkCheckSlowPath is BenchmarkCheck on the big.Rat fallback.
func BenchmarkCheckSlowPath(b *testing.B) {
	ForceSlowPath = true
	defer func() { ForceSlowPath = false }()
	benchmarkCheck(b)
}

func benchmarkCheck(b *testing.B) {
	s, slacks := benchTableau(24, 6)
	for v := 0; v < 24; v++ {
		s.AssertLower(v, big.NewRat(-50, 1), NoTag)
		s.AssertUpper(v, big.NewRat(50, 1), NoTag)
	}
	if c := s.Check(); c != nil {
		b.Fatalf("base system infeasible: %+v", c)
	}
	lo := NumFromInt64(20)
	hi := NumFromInt64(-20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := slacks[i%len(slacks)]
		s.Push()
		if i%2 == 0 {
			s.AssertLowerNum(e, lo, NoTag)
		} else {
			s.AssertUpperNum(e, hi, NoTag)
		}
		if c := s.Check(); c != nil && !c.Budget {
			b.Fatalf("iter %d: unexpected conflict", i)
		}
		s.Pop()
	}
}

// BenchmarkCheckWideTableau is BenchmarkCheck on a tableau of five
// thousand variables where each Check starts from a handful of violated
// rows, so it measures what Check pays for the rows it does not touch.
// The tableau is a thousand independent blocks, a slack over four boxed
// variables each, so pivots cannot fill it in and every iteration costs
// the same.
func BenchmarkCheckWideTableau(b *testing.B) {
	const blocks, w = 1000, 4
	s := New(blocks * w)
	for v := 0; v < blocks*w; v++ {
		s.AssertLower(v, big.NewRat(-3, 1), NoTag)
		s.AssertUpper(v, big.NewRat(3, 1), NoTag)
	}
	coefs := [w]int64{1, 2, -3, 1}
	slacks := make([]int, blocks)
	for k := range slacks {
		def := make(map[int]*big.Int, w)
		for j, c := range coefs {
			def[k*w+j] = big.NewInt(c)
		}
		slacks[k] = s.DefineSlack(def)
	}
	lo := NumFromInt64(5)
	hi := NumFromInt64(-5)
	up := make([]bool, blocks)
	pivots := s.Pivots
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Four blocks spread over the tableau, each slack pushed to the
		// side opposite its last visit, so every assert breaks a bound.
		s.Push()
		for k := 0; k < 4; k++ {
			r := (4*i + k) * 7 % blocks
			if up[r] = !up[r]; up[r] {
				s.AssertLowerNum(slacks[r], lo, NoTag)
			} else {
				s.AssertUpperNum(slacks[r], hi, NoTag)
			}
		}
		if c := s.Check(); c != nil {
			b.Fatalf("iter %d: unexpected conflict %+v", i, c)
		}
		s.Pop()
	}
	b.ReportMetric(float64(s.Pivots-pivots)/float64(b.N), "pivots/op")
}

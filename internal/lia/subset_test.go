package lia

import (
	"fmt"
	"math/big"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/sat"
	"repro/internal/simplex"
)

// wideSubsetScratch is subsetScratch as it was before the compact
// numbering: the scratch tableau is as wide as the search tableau and
// keeps the search's simplex ids. It is the oracle for
// TestSubsetCheckMatchesWideScratch.
func (d *dpllt) wideSubsetScratch(subset []int) (*simplex.Solver, []int, *simplex.Conflict) {
	scratch := simplex.New(d.sx.NumVars())
	scratch.PivotBudget = d.opts.PivotBudget / 4
	scratch.Ctx = d.opts.Ctx
	slackOf := make(map[string]int)
	intVarsSet := make(map[int]bool)
	for _, i := range subset {
		a := d.atoms[i]
		er := d.exprs[a.exprKey]
		sv, ok := slackOf[a.exprKey]
		if !ok {
			if len(er.def) == 1 {
				v := er.vars[0]
				if er.def[v].Cmp(oneInt) == 0 {
					sv = d.svOf(v)
					ok = true
				}
			}
			if !ok {
				idef := make(map[int]*big.Int, len(er.def))
				for _, v := range er.vars {
					idef[d.svOf(v)] = er.def[v]
				}
				sv = scratch.DefineSlack(idef)
			}
			slackOf[a.exprKey] = sv
		}
		for _, v := range er.vars {
			intVarsSet[d.svOf(v)] = true
		}
		pol := d.assertedPol[i] == 1
		var c *simplex.Conflict
		switch {
		case pol && a.upper:
			c = scratch.AssertUpperNum(sv, a.posNum, i)
		case pol:
			c = scratch.AssertLowerNum(sv, a.posNum, i)
		case a.upper:
			c = scratch.AssertLowerNum(sv, a.negNum, i)
		default:
			c = scratch.AssertUpperNum(sv, a.negNum, i)
		}
		if c != nil {
			return scratch, nil, c
		}
	}
	intVars := make([]int, 0, len(intVarsSet))
	for v := range intVarsSet {
		intVars = append(intVars, v)
	}
	sort.Ints(intVars)
	return scratch, intVars, nil
}

// solveScratch runs subsetCheck's branch and bound on a built scratch,
// or passes on the conflict its construction raised.
func (d *dpllt) solveScratch(s *simplex.Solver, intVars []int, c *simplex.Conflict) (simplex.IntResult, map[int]*big.Int, *simplex.Conflict) {
	if c != nil {
		return simplex.IntUnsat, nil, c
	}
	bb := &simplex.IntSolver{S: s, IntVars: intVars, NodeBudget: d.opts.BBNodeBudget / 8}
	return bb.Solve()
}

// TestSubsetCheckMatchesWideScratch checks that the compact scratch
// tableau of subsetCheck answers exactly like the full-width one on
// random subsets of random atoms: same verdict, same core, in the same
// order, after the same number of pivots.
func TestSubsetCheckMatchesWideScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	d := &dpllt{
		opts:  (&Options{}).defaults(),
		sat:   sat.New(),
		byKey: make(map[string]int),
		exprs: make(map[string]*exprRec),
		vars:  make(map[Var]bool),
		ps:    &presolver{},
	}
	// Atoms come in clusters of a few variables with gaps between their
	// ids, so a subset touches a small, non-contiguous slice of a wide
	// search tableau. Every fourth cluster also carries a diamond, u+w
	// = odd and u-w = 0, which is rationally feasible but has no integer
	// point: branch and bound refutes it only under its split bounds,
	// so the check reports no core.
	const clusters, perCluster, atomsPer = 24, 5, 14
	var byCluster [][]int
	var diamonds []int
	encode := func(f Formula) []int {
		before := len(d.atoms)
		d.encode(nnf(f, false), 0)
		out := make([]int, 0, len(d.atoms)-before)
		for i := before; i < len(d.atoms); i++ {
			out = append(out, i)
		}
		return out
	}
	for c := 0; c < clusters; c++ {
		var atoms []int
		for a := 0; a < atomsPer; a++ {
			e := NewLin()
			if rng.Intn(4) == 0 {
				e.AddTermInt(Var(c*perCluster*3+3*rng.Intn(perCluster)), 1)
			} else {
				for k := 1 + rng.Intn(3); k > 0; k-- {
					coef := int64(rng.Intn(7) - 3)
					if c%3 == 0 {
						coef *= 2
					}
					e.AddTermInt(Var(c*perCluster*3+3*rng.Intn(perCluster)), coef)
				}
			}
			e.AddConst(int64(rng.Intn(13) - 6))
			if e.NumTerms() == 0 {
				continue
			}
			var f Formula
			if rng.Intn(2) == 0 {
				f = Le(e, Const(0))
			} else {
				f = Ge(e, Const(0))
			}
			atoms = append(atoms, encode(f)...)
		}
		if c%4 == 0 {
			u, w := Var(c*perCluster*3), Var(c*perCluster*3+3)
			sum := NewLin().AddTermInt(u, 1).AddTermInt(w, 1).AddConst(int64(-2*c - 1))
			diff := NewLin().AddTermInt(u, 1).AddTermInt(w, -1)
			var dia []int
			for _, f := range []Formula{Le(sum, Const(0)), Ge(sum, Const(0)), Le(diff, Const(0)), Ge(diff, Const(0))} {
				dia = append(dia, encode(f)...)
			}
			diamonds = append(diamonds, dia...)
			atoms = append(dia, atoms...)
		}
		byCluster = append(byCluster, atoms)
	}
	d.initSimplex()
	// Polarities mostly agree with a planted integer point, so subsets
	// are feasible often enough; the rest are flipped.
	plant := make(map[Var]*big.Int)
	for _, v := range sortedVars(d.vars) {
		plant[v] = big.NewInt(int64(rng.Intn(11) - 5))
	}
	d.assertedPol = make([]int8, len(d.atoms))
	for i, a := range d.atoms {
		val := new(big.Int)
		for v, c := range d.exprs[a.exprKey].def {
			val.Add(val, new(big.Int).Mul(c, plant[v]))
		}
		holds := val.Cmp(a.bound) <= 0
		if !a.upper {
			holds = val.Cmp(a.bound) >= 0
		}
		if holds == (rng.Intn(12) != 0) {
			d.assertedPol[i] = 1
		} else {
			d.assertedPol[i] = 2
		}
	}
	for _, i := range diamonds {
		d.assertedPol[i] = 1
	}

	var infeasible, withCore, feasible int
	for iter := 0; iter < 400; iter++ {
		var subset []int
		for _, c := range rng.Perm(clusters)[:1+rng.Intn(2)] {
			for k, i := range byCluster[c] {
				if k < 4 && c%4 == 0 || rng.Intn(3) != 0 {
					subset = append(subset, i)
				}
			}
		}
		if len(subset) == 0 {
			continue
		}
		ws, wVars, wc := d.wideSubsetScratch(subset)
		wRes, wModel, wc := d.solveScratch(ws, wVars, wc)
		wantInf := wRes == simplex.IntUnsat
		var wantCore []int
		if wc != nil && !wc.Tainted {
			wantCore = wc.Tags
		}
		gotInf, gotCore := d.subsetCheck(subset)
		if gotInf != wantInf || fmt.Sprint(gotCore) != fmt.Sprint(wantCore) {
			t.Fatalf("subset %v: compact (%v, %v), wide (%v, %v)",
				subset, gotInf, gotCore, wantInf, wantCore)
		}
		// Same search, not just the same answer: the compact scratch
		// pivots as often and, on sat, finds the same integer point.
		cs, cVars, cc := d.subsetScratch(subset)
		cRes, cModel, _ := d.solveScratch(cs, cVars, cc)
		if cRes != wRes || cs.Pivots != ws.Pivots {
			t.Fatalf("subset %v: compact %v after %d pivots, wide %v after %d",
				subset, cRes, cs.Pivots, wRes, ws.Pivots)
		}
		for k := range cVars {
			if cRes == simplex.IntSat && cModel[cVars[k]].Cmp(wModel[wVars[k]]) != 0 {
				t.Fatalf("subset %v: variable %d is %v compact, %v wide",
					subset, wVars[k], cModel[cVars[k]], wModel[wVars[k]])
			}
		}
		switch {
		case !gotInf:
			feasible++
		case len(gotCore) > 0:
			withCore++
			infeasible++
		default:
			infeasible++
		}
	}
	if feasible < 20 || withCore < 20 || infeasible-withCore < 5 {
		t.Fatalf("weak sample: %d feasible, %d infeasible with core, %d without",
			feasible, withCore, infeasible-withCore)
	}
}

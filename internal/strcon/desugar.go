package strcon

import (
	"fmt"

	"repro/internal/lia"
)

// LenExpr returns the linear expression for the length of a term:
// the sum of the term's variable lengths plus its constant characters.
func (p *Problem) LenExpr(t Term) *lia.LinExpr {
	e := lia.NewLin()
	for _, it := range t {
		if it.IsVar {
			e.AddTermInt(p.LenVar(it.V), 1)
		} else {
			e.AddConst(int64(len(it.Const)))
		}
	}
	return e
}

// Prepare rewrites the problem into the form the decision procedure
// assumes: word disequalities are desugared into equalities plus
// character constraints, and within each equality every string variable
// occurs at most once (repeated occurrences are replaced by fresh
// variables tied back with auxiliary equalities, cf. §7.2). Prepare is
// idempotent.
func (p *Problem) Prepare() {
	var aux []Constraint
	out := make([]Constraint, len(p.Constraints))
	for i, c := range p.Constraints {
		out[i] = p.prepCon(c, &aux)
	}
	p.Constraints = append(out, aux...)
	resolveAutomata(p.Constraints)
}

// resolveAutomata forces every Membership constraint's effective
// automaton (including complements) to be computed now. The cache
// inside Membership is written lazily, so resolving it up front makes
// the constraint values read-only from here on, safe to share across
// the problem clones of one solve.
func resolveAutomata(cons []Constraint) {
	for _, c := range cons {
		switch t := c.(type) {
		case *Membership:
			t.Automaton()
		case *AndCon:
			resolveAutomata(t.Args)
		case *OrCon:
			resolveAutomata(t.Args)
		}
	}
}

func (p *Problem) prepCon(c Constraint, aux *[]Constraint) Constraint {
	switch t := c.(type) {
	case *WordNeq:
		return p.prepCon(p.desugarNeq(t), aux)
	case *WordEq:
		return p.dedupeEq(t, aux)
	case *AndCon:
		args := make([]Constraint, len(t.Args))
		for i, a := range t.Args {
			args[i] = p.prepCon(a, aux)
		}
		return &AndCon{Args: args}
	case *OrCon:
		args := make([]Constraint, len(t.Args))
		for i, a := range t.Args {
			args[i] = p.prepCon(a, aux)
		}
		return &OrCon{Args: args}
	default:
		return c
	}
}

// dedupeEq ensures every variable occurs at most once across both sides
// of the equality, introducing fresh variables and x = x' equalities.
func (p *Problem) dedupeEq(eq *WordEq, aux *[]Constraint) Constraint {
	seen := make(map[Var]bool)
	rewrite := func(t Term) Term {
		out := make(Term, len(t))
		for i, it := range t {
			if !it.IsVar {
				out[i] = it
				continue
			}
			if !seen[it.V] {
				seen[it.V] = true
				out[i] = it
				continue
			}
			fresh := p.NewStrVar(fmt.Sprintf("%s#dup%d", p.StrName(it.V), p.NumStrVars()))
			*aux = append(*aux, &WordEq{L: T(TV(it.V)), R: T(TV(fresh))})
			out[i] = TV(fresh)
		}
		return out
	}
	l := rewrite(eq.L)
	r := rewrite(eq.R)
	return &WordEq{L: l, R: r}
}

// desugarNeq rewrites L != R as "lengths differ, or some position holds
// different characters" using fresh variables (the standard encoding,
// §7.2 / [4]).
func (p *Problem) desugarNeq(ne *WordNeq) Constraint {
	w := p.NewStrVar(fmt.Sprintf("neq_w%d", p.NumStrVars()))
	a := p.NewStrVar(fmt.Sprintf("neq_a%d", p.NumStrVars()))
	u1 := p.NewStrVar(fmt.Sprintf("neq_u%d", p.NumStrVars()))
	b := p.NewStrVar(fmt.Sprintf("neq_b%d", p.NumStrVars()))
	u2 := p.NewStrVar(fmt.Sprintf("neq_v%d", p.NumStrVars()))
	na := p.Lia.Fresh("neq_na")
	nb := p.Lia.Fresh("neq_nb")

	lenDiffer := &Arith{F: lia.Ne(p.LenExpr(ne.L), p.LenExpr(ne.R))}
	charDiffer := &AndCon{Args: []Constraint{
		&WordEq{L: ne.L, R: T(TV(w), TV(a), TV(u1))},
		&WordEq{L: ne.R, R: T(TV(w), TV(b), TV(u2))},
		&Ord{N: na, X: a},
		&Ord{N: nb, X: b},
		&Arith{F: lia.Ne(lia.V(na), lia.V(nb))},
	}}
	return &OrCon{Args: []Constraint{lenDiffer, charDiffer}}
}

// CharAt returns constraints expressing y = charAt(x, i) with SMT-LIB
// str.at semantics: the single character at index i when 0 <= i < |x|,
// otherwise the empty string. The index is an arbitrary linear
// expression.
func (p *Problem) CharAt(y, x Var, i *lia.LinExpr) Constraint {
	x1 := p.NewStrVar(fmt.Sprintf("at_p%d", p.NumStrVars()))
	x3 := p.NewStrVar(fmt.Sprintf("at_s%d", p.NumStrVars()))
	lenX := lia.V(p.LenVar(x))
	inRange := &AndCon{Args: []Constraint{
		&Arith{F: lia.And(lia.Ge(i.Clone(), lia.Const(0)), lia.Lt(i.Clone(), lenX))},
		&WordEq{L: T(TV(x)), R: T(TV(x1), TV(y), TV(x3))},
		&Arith{F: lia.Eq(lia.V(p.LenVar(x1)), i.Clone())},
		&Arith{F: lia.EqConst(p.LenVar(y), 1)},
	}}
	outRange := &AndCon{Args: []Constraint{
		&Arith{F: lia.Or(lia.Lt(i.Clone(), lia.Const(0)), lia.Ge(i.Clone(), lenX))},
		&WordEq{L: T(TV(y)), R: T()},
	}}
	return &OrCon{Args: []Constraint{inRange, outRange}}
}

// Substr returns constraints expressing y = substr(x, i, n) with
// SMT-LIB str.substr semantics.
func (p *Problem) Substr(y, x Var, i, n *lia.LinExpr) Constraint {
	x1 := p.NewStrVar(fmt.Sprintf("ss_p%d", p.NumStrVars()))
	x3 := p.NewStrVar(fmt.Sprintf("ss_s%d", p.NumStrVars()))
	lenX := lia.V(p.LenVar(x))
	lenY := lia.V(p.LenVar(y))
	avail := lenX.Clone().Sub(i) // |x| - i
	full := &AndCon{Args: []Constraint{
		&Arith{F: lia.And(
			lia.Ge(i.Clone(), lia.Const(0)),
			lia.Lt(i.Clone(), lenX),
			lia.Ge(n.Clone(), lia.Const(1)),
		)},
		&WordEq{L: T(TV(x)), R: T(TV(x1), TV(y), TV(x3))},
		&Arith{F: lia.Eq(lia.V(p.LenVar(x1)), i.Clone())},
		&Arith{F: lia.Or(
			lia.And(lia.Le(n.Clone(), avail.Clone()), lia.Eq(lenY.Clone(), n.Clone())),
			lia.And(lia.Gt(n.Clone(), avail.Clone()), lia.Eq(lenY.Clone(), avail.Clone())),
		)},
	}}
	empty := &AndCon{Args: []Constraint{
		&Arith{F: lia.Or(
			lia.Lt(i.Clone(), lia.Const(0)),
			lia.Ge(i.Clone(), lenX),
			lia.Le(n.Clone(), lia.Const(0)),
		)},
		&WordEq{L: T(TV(y)), R: T()},
	}}
	return &OrCon{Args: []Constraint{full, empty}}
}

// Contains returns constraints expressing that x contains the term t.
func (p *Problem) Contains(x Var, t Term) Constraint {
	a := p.NewStrVar(fmt.Sprintf("ct_a%d", p.NumStrVars()))
	b := p.NewStrVar(fmt.Sprintf("ct_b%d", p.NumStrVars()))
	items := Term{TV(a)}
	items = append(items, t...)
	items = append(items, TV(b))
	return &WordEq{L: T(TV(x)), R: items}
}

// PrefixOf returns constraints expressing that the term t is a prefix
// of x.
func (p *Problem) PrefixOf(t Term, x Var) Constraint {
	r := p.NewStrVar(fmt.Sprintf("pf_r%d", p.NumStrVars()))
	items := append(Term{}, t...)
	items = append(items, TV(r))
	return &WordEq{L: T(TV(x)), R: items}
}

// SuffixOf returns constraints expressing that the term t is a suffix
// of x.
func (p *Problem) SuffixOf(t Term, x Var) Constraint {
	l := p.NewStrVar(fmt.Sprintf("sf_l%d", p.NumStrVars()))
	items := Term{TV(l)}
	items = append(items, t...)
	return &WordEq{L: T(TV(x)), R: items}
}

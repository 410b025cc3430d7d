// Package parikh computes, for a finite automaton, a linear formula
// whose models are exactly the Parikh images of its accepting runs
// (paper Lemma 2.1). The construction is the standard existential
// Presburger encoding of Verma, Seidl, and Schwentick: per-edge flow
// variables with Euler-path flow conservation, plus spanning-tree depth
// variables that force the used edges to be connected to the initial
// state.
//
// The string solver applies it to asynchronous products of parametric
// automata when building synchronization formulas (paper §7).
package parikh

import "repro/internal/lia"

// Edge is a directed edge of the automaton graph. Labels are irrelevant
// here; callers keep the edge order and attach meaning to the flow
// variables.
type Edge struct {
	From, To int
}

// Automaton is the graph view of a finite automaton with one initial
// and one final state.
type Automaton struct {
	NumStates int
	Init      int
	Final     int
	Edges     []Edge
}

// FlowOnly returns the flow-conservation part of the Parikh encoding:
// non-negativity plus Euler-path flow balance. Its models
// over-approximate the Parikh images of accepting runs — used-edge
// connectivity is not enforced. Pair it with Disconnected/CutFormula
// for lazy connectivity refinement, or use Formula for the eager
// encoding.
func FlowOnly(a Automaton, flow []lia.Var) lia.Formula {
	if len(flow) != len(a.Edges) {
		// contract: callers allocate one flow variable per edge.
		panic("parikh: flow variable count mismatch")
	}
	var conj []lia.Formula
	for _, f := range flow {
		conj = append(conj, lia.Ge(lia.V(f), lia.Const(0)))
	}
	in := make([][]int, a.NumStates)
	out := make([][]int, a.NumStates)
	for i, e := range a.Edges {
		out[e.From] = append(out[e.From], i)
		in[e.To] = append(in[e.To], i)
	}
	for q := 0; q < a.NumStates; q++ {
		e := lia.NewLin()
		for _, i := range in[q] {
			e.AddTermInt(flow[i], 1)
		}
		for _, i := range out[q] {
			e.AddTermInt(flow[i], -1)
		}
		rhs := int64(0)
		if q == a.Final {
			rhs++
		}
		if q == a.Init {
			rhs--
		}
		conj = append(conj, lia.Eq(e, lia.Const(rhs)))
	}
	return lia.And(conj...)
}

// Disconnected checks the used-edge subgraph of a flow assignment. It
// returns a set of states that carry used edges but are unreachable
// from Init through used edges, or ok=true when the flow is connected
// (and hence a genuine Parikh image, given flow conservation).
func Disconnected(a Automaton, used []bool) (component []int, ok bool) {
	touched := make([]bool, a.NumStates)
	for i, e := range a.Edges {
		if used[i] {
			touched[e.From] = true
			touched[e.To] = true
		}
	}
	reach := make([]bool, a.NumStates)
	reach[a.Init] = true
	stack := []int{a.Init}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for i, e := range a.Edges {
			if used[i] && e.From == s && !reach[e.To] {
				reach[e.To] = true
				stack = append(stack, e.To)
			}
		}
	}
	for q := 0; q < a.NumStates; q++ {
		if touched[q] && !reach[q] {
			component = append(component, q)
		}
	}
	if len(component) == 0 {
		return nil, true
	}
	return component, false
}

// CutFormula builds the connectivity cut for a violated component C:
// either some edge entering C from outside is used, or every edge
// leaving a state of C is unused. Every true Parikh image satisfies it.
// It excludes the flows for which Disconnected returned C provided the
// flows are non-negative: then no edge entering C is used and some edge
// leaving C carries positive flow, so both disjuncts fail. Negative
// flows (a model in which the flow constraints are not in force) can
// cancel in the sums and satisfy the cut, so callers check it against
// the model before relying on it.
func CutFormula(a Automaton, flow []lia.Var, component []int) lia.Formula {
	inC := make(map[int]bool, len(component))
	for _, q := range component {
		inC[q] = true
	}
	enter := lia.NewLin()
	leave := lia.NewLin()
	for i, e := range a.Edges {
		if inC[e.To] && !inC[e.From] {
			enter.AddTermInt(flow[i], 1)
		}
		if inC[e.From] {
			leave.AddTermInt(flow[i], 1)
		}
	}
	return lia.Or(
		lia.Ge(enter, lia.Const(1)),
		lia.Eq(leave, lia.Const(0)),
	)
}

// Formula returns a linear formula over the per-edge flow variables
// flow[i] (one per a.Edges[i], allocated by the caller) such that its
// models, projected to flow, are exactly the functions counting how
// often each edge is used by some accepting run from Init to Final.
// Auxiliary depth variables are allocated from pool, one per state in
// state order.
func Formula(a Automaton, flow []lia.Var, pool *lia.Pool) lia.Formula {
	if len(flow) != len(a.Edges) {
		panic("parikh: flow variable count mismatch")
	}
	z := make([]lia.Var, a.NumStates)
	for q := range z {
		z[q] = pool.Fresh("z")
	}
	return formulaBody(a, flow, z)
}

// formulaBody is the Verma–Seidl–Schwentick encoding over explicit
// flow and depth variables.
func formulaBody(a Automaton, flow, z []lia.Var) lia.Formula {
	var conj []lia.Formula

	// Non-negativity.
	for _, f := range flow {
		conj = append(conj, lia.Ge(lia.V(f), lia.Const(0)))
	}

	// Flow conservation: in(q) - out(q) = [q==Final] - [q==Init].
	in := make([][]int, a.NumStates)  // edge indices
	out := make([][]int, a.NumStates) // edge indices
	for i, e := range a.Edges {
		out[e.From] = append(out[e.From], i)
		in[e.To] = append(in[e.To], i)
	}
	for q := 0; q < a.NumStates; q++ {
		e := lia.NewLin()
		for _, i := range in[q] {
			e.AddTermInt(flow[i], 1)
		}
		for _, i := range out[q] {
			e.AddTermInt(flow[i], -1)
		}
		rhs := int64(0)
		if q == a.Final {
			rhs++
		}
		if q == a.Init {
			rhs--
		}
		conj = append(conj, lia.Eq(e, lia.Const(rhs)))
	}

	// Connectivity: depth variables z_q. z_Init = 1; for every other
	// state, either no incoming flow (then flow conservation forces no
	// outgoing flow either) or it is reached from a connected
	// predecessor one level deeper.
	conj = append(conj, lia.EqConst(z[a.Init], 1))
	maxDepth := int64(a.NumStates)
	for q := 0; q < a.NumStates; q++ {
		conj = append(conj,
			lia.Ge(lia.V(z[q]), lia.Const(0)),
			lia.Le(lia.V(z[q]), lia.Const(maxDepth)))
		if q == a.Init {
			continue
		}
		inflow := lia.NewLin()
		for _, i := range in[q] {
			inflow.AddTermInt(flow[i], 1)
		}
		noIn := lia.Eq(inflow, lia.Const(0))
		var reach []lia.Formula
		for _, i := range in[q] {
			p := a.Edges[i].From
			if p == q {
				continue // self-loop cannot establish first reachability
			}
			reach = append(reach, lia.And(
				lia.Ge(lia.V(flow[i]), lia.Const(1)),
				lia.Ge(lia.V(z[p]), lia.Const(1)),
				lia.Eq(lia.V(z[q]), lia.V(z[p]).AddConst(1)),
			))
		}
		conj = append(conj, lia.Or(noIn, lia.Or(reach...)))
	}
	return lia.And(conj...)
}

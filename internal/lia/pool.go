// Package lia implements quantifier-free linear integer arithmetic:
// formula construction, normalization, Tseitin CNF conversion, and a
// DPLL(T) satisfiability procedure built on the sat (CDCL) and simplex
// (exact-rational simplex with branch-and-bound) packages.
//
// The under-approximation module of the string solver translates string
// constraints restricted by parametric flat automata into formulas of
// this package (paper sections 6-8).
package lia

import "fmt"

// Var identifies an integer variable allocated from a Pool.
type Var int

// Pool allocates integer variables and remembers their names for
// diagnostics and model printing. The zero value is not ready for use;
// call NewPool.
type Pool struct {
	names []string
}

// NewPool returns an empty variable pool.
func NewPool() *Pool {
	return &Pool{}
}

// Fresh allocates a new variable. The name is used only for printing;
// it need not be unique.
func (p *Pool) Fresh(name string) Var {
	v := Var(len(p.names))
	if name == "" {
		name = fmt.Sprintf("v%d", v)
	}
	p.names = append(p.names, name)
	return v
}

// Name reports the name the variable was allocated with.
func (p *Pool) Name(v Var) string {
	if int(v) < 0 || int(v) >= len(p.names) {
		return fmt.Sprintf("?%d", v)
	}
	return p.names[v]
}

// Size reports how many variables have been allocated.
func (p *Pool) Size() int { return len(p.names) }

// Clone returns an independent copy of the pool: variables allocated in
// the clone do not affect the original (and vice versa). The core gives
// each case-split branch a cloned pool, so a branch's variable
// numbering does not depend on which branches were flattened first.
func (p *Pool) Clone() *Pool {
	return &Pool{names: append([]string(nil), p.names...)}
}

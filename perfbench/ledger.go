package main

import (
	"fmt"
	"strings"

	"repro/internal/engine"
)

// ledger splits one solve's statistics tree (core.Result.Stats) into
// the layers the benchmark reports. Times are milliseconds; the
// counters are the program's own and must repeat exactly run to run.
type ledger struct {
	gateMS        float64 // root overapprox time + the gate's own lia presolve/search
	flattenMS     float64 // round*/branch* flatten
	liaPresolveMS float64 // round*/branch* lia presolve
	liaSearchMS   float64 // round*/branch* lia search

	counts counts
	// Not part of the repeat check: template-cache hit counts depend on
	// what earlier solves in the process left in the caches.
	flattenSize int64
	syncHit     int64
	syncMiss    int64
	parikhHit   int64
	parikhMiss  int64
	gateMemoHit int64
}

// counts are the per-solve work counters whose totals must repeat
// exactly across runs over instances that did not hit their deadline.
type counts struct {
	SatConflicts      int64 `json:"sat.conflicts"`
	SatDecisions      int64 `json:"sat.decisions"`
	SatPropagations   int64 `json:"sat.propagations"`
	SatRestarts       int64 `json:"sat.restarts"`
	SimplexPivots     int64 `json:"simplex.pivots"`
	SimplexRefactors  int64 `json:"simplex.refactors"`
	GateCalls         int64 `json:"gate.calls"`
	CoreBranches      int64 `json:"core.branches"`
	CoreBranchesPrune int64 `json:"core.branches_pruned"`
	CoreRounds        int64 `json:"core.rounds"`
	LiaAtoms          int64 `json:"lia.atoms"`
	LiaTheoryConfl    int64 `json:"lia.theory_conflicts"`
}

func (c *counts) add(o counts) {
	c.SatConflicts += o.SatConflicts
	c.SatDecisions += o.SatDecisions
	c.SatPropagations += o.SatPropagations
	c.SatRestarts += o.SatRestarts
	c.SimplexPivots += o.SimplexPivots
	c.SimplexRefactors += o.SimplexRefactors
	c.GateCalls += o.GateCalls
	c.CoreBranches += o.CoreBranches
	c.CoreBranchesPrune += o.CoreBranchesPrune
	c.CoreRounds += o.CoreRounds
	c.LiaAtoms += o.LiaAtoms
	c.LiaTheoryConfl += o.LiaTheoryConfl
}

// add accumulates another solve's (or server's) ledger.
func (l *ledger) add(o ledger) {
	l.gateMS += o.gateMS
	l.flattenMS += o.flattenMS
	l.liaPresolveMS += o.liaPresolveMS
	l.liaSearchMS += o.liaSearchMS
	l.counts.add(o.counts)
	l.flattenSize += o.flattenSize
	l.syncHit += o.syncHit
	l.syncMiss += o.syncMiss
	l.parikhHit += o.parikhHit
	l.parikhMiss += o.parikhMiss
	l.gateMemoHit += o.gateMemoHit
}

// ledgerSlackMS is how far the layer times may exceed the solve's own
// duration before the ledger counts as broken: the timers run inside
// the timed SolveCtx call, so only clock rounding can make them exceed
// it.
const ledgerSlackMS = 0.05

// attributed is the time the ledger assigns to named layers.
func (l *ledger) attributed() float64 {
	return l.gateMS + l.flattenMS + l.liaPresolveMS + l.liaSearchMS
}

// unattributed is the rest of a solve (or of a sum of solves) lasting
// solveMS.
func (l *ledger) unattributed(solveMS float64) float64 { return solveMS - l.attributed() }

// check reports a broken ledger: a negative layer time, or layer times
// that add up to more than the solve they were read from (overlapping
// or double-counted timers). It returns "" when the ledger holds.
func (l *ledger) check(solveMS float64) string {
	for _, v := range []float64{l.gateMS, l.flattenMS, l.liaPresolveMS, l.liaSearchMS} {
		if v < 0 {
			return fmt.Sprintf("ledger: negative layer time %.3f ms", v)
		}
	}
	if u := l.unattributed(solveMS); u < -ledgerSlackMS {
		return fmt.Sprintf("ledger: layer times %.3f ms exceed core.solve_ms %.3f ms", l.attributed(), solveMS)
	}
	return ""
}

func ns(n int64) float64 { return float64(n) / 1e6 }

// ledgerOf reads a solve's statistics snapshot. The root node holds
// the gate (overapprox plus the lia/sat/simplex nodes of the gate's
// own arithmetic solves); round<i>/branch<j> nodes hold the refinement
// loop.
func ledgerOf(root *engine.Snapshot) ledger {
	var l ledger
	if root == nil {
		return l
	}
	l.counts.CoreBranches = root.Counters["branches"]
	l.counts.CoreRounds = root.Counters["rounds"]
	l.gateMemoHit = root.Counters["cache.overapprox.hit"]
	if oa := root.Children["overapprox"]; oa != nil {
		l.gateMS += ns(oa.TimersNS["time"])
		l.counts.GateCalls = oa.Counters["calls"]
	}
	if lia := root.Children["lia"]; lia != nil {
		l.gateMS += ns(lia.TimersNS["time.presolve"]) + ns(lia.TimersNS["time.search"])
	}
	addWork(&l, root)
	for _, rn := range root.Order {
		if !strings.HasPrefix(rn, "round") {
			continue
		}
		round := root.Children[rn]
		l.counts.CoreBranchesPrune += round.Counters["branches.pruned"]
		for _, bn := range round.Order {
			if !strings.HasPrefix(bn, "branch") {
				continue
			}
			br := round.Children[bn]
			if fl := br.Children["flatten"]; fl != nil {
				l.flattenMS += ns(fl.TimersNS["time"])
				l.flattenSize += fl.Counters["formula.size"]
			}
			if lia := br.Children["lia"]; lia != nil {
				l.liaPresolveMS += ns(lia.TimersNS["time.presolve"])
				l.liaSearchMS += ns(lia.TimersNS["time.search"])
			}
			if c := br.Children["cache"]; c != nil {
				l.syncHit += c.Counters["sync.hit"]
				l.syncMiss += c.Counters["sync.miss"]
				l.parikhHit += c.Counters["parikh.hit"]
				l.parikhMiss += c.Counters["parikh.miss"]
			}
			addWork(&l, br)
		}
	}
	l.counts.CoreBranchesPrune += root.Counters["branches.pruned"]
	return l
}

// addWork adds the sat, simplex and lia counters of one node's direct
// children.
func addWork(l *ledger, n *engine.Snapshot) {
	if s := n.Children["sat"]; s != nil {
		l.counts.SatConflicts += s.Counters["conflicts"]
		l.counts.SatDecisions += s.Counters["decisions"]
		l.counts.SatPropagations += s.Counters["propagations"]
		l.counts.SatRestarts += s.Counters["restarts"]
	}
	if s := n.Children["simplex"]; s != nil {
		l.counts.SimplexPivots += s.Counters["pivots"]
		l.counts.SimplexRefactors += s.Counters["refactors"]
	}
	if s := n.Children["lia"]; s != nil {
		l.counts.LiaAtoms += s.Counters["atoms"]
		l.counts.LiaTheoryConfl += s.Counters["theory.conflicts"]
	}
}

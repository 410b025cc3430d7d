package main

// layerMetric is one per-layer metric of the catalog.
type layerMetric struct {
	name, unit, kind string
}

// layerCatalog lists every per-layer metric a traced run prints, on
// every workload; a layer a workload does not reach reads 0 there.
// Kind "count" marks values that repeat exactly run to run (the only
// ones that may support a count claim); "timing" values vary.
var layerCatalog = []layerMetric{
	{"smtlib.parse_ms", "ms", "timing"},
	{"smtlib.canon_ms", "ms", "timing"},
	{"core.solve_ms", "ms", "timing"},
	{"core.rounds", "count", "count"},
	{"core.branches", "count", "count"},
	{"core.branches_pruned", "count", "count"},
	{"gate.ms", "ms", "timing"},
	{"gate.calls", "count", "count"},
	{"gate.memo_hit_ratio", "ratio", "count"},
	{"gate.decided_share", "share", "count"},
	{"flatten.ms", "ms", "timing"},
	{"flatten.formula_size", "count", "count"},
	{"pfa.sync_hit_ratio", "ratio", "count"},
	{"parikh.hit_ratio", "ratio", "count"},
	{"lia.presolve_ms", "ms", "timing"},
	{"lia.search_ms", "ms", "timing"},
	{"lia.atoms", "count", "count"},
	{"lia.theory_conflicts", "count", "count"},
	{"sat.conflicts", "count", "count"},
	{"sat.decisions", "count", "count"},
	{"sat.propagations", "count", "count"},
	{"sat.restarts", "count", "count"},
	{"simplex.pivots", "count", "count"},
	{"simplex.refactors", "count", "count"},
	{"validate.ms", "ms", "timing"},
	{"solve.unattributed_ms", "ms", "timing"},
	{"latency_ms.p99", "ms", "timing"},
	{"within_slo_share.cold", "share", "timing"},
	{"within_slo_share.repeat", "share", "timing"},
	{"server.queue_wait_ms.p50", "ms", "timing"},
	{"server.queue_wait_ms.p99", "ms", "timing"},
	{"server.overhead_ms.p50", "ms", "timing"},
	{"server.cache_hit_share", "share", "timing"},
	{"server.coalesced_share", "share", "timing"},
	{"latency_ms.cold.p50", "ms", "timing"},
	{"latency_ms.cached.p50", "ms", "timing"},
	{"latency_ms.coalesced.p50", "ms", "timing"},
	{"server.rejected", "count", "timing"},
	{"server.reval_failures", "count", "timing"},
	{"cluster.hop_ms.p50", "ms", "timing"},
	{"cluster.hedges_launched", "count", "timing"},
	{"cluster.hedges_won", "count", "timing"},
	{"cluster.failovers", "count", "timing"},
	{"cluster.retries", "count", "timing"},
	{"cluster.peer_fill_share", "share", "timing"},
	{"gen.lag_ms.p99", "ms", "timing"},
}

// layerMetrics returns the catalog with every value 0 and the kinds
// recorded in rep, ready for a workload to fill in what it measured.
func layerMetrics(rep *report) map[string]metric {
	m := make(map[string]metric, len(layerCatalog))
	for _, lm := range layerCatalog {
		m[lm.name] = metric{0, lm.unit}
		rep.Kinds[lm.name] = lm.kind
	}
	return m
}

// set overwrites the value of a catalog metric.
func set(m map[string]metric, name string, v float64) {
	e, ok := m[name]
	if !ok {
		panic("perfbench: metric not in the per-layer catalog: " + name) // contract: names come from layerCatalog
	}
	e.Value = v
	m[name] = e
}

// keepTraced stores the end-to-end metrics a traced run measured, so
// the tracing overhead can be read against an untraced run.
func keepTraced(rep *report, e2e map[string]metric) {
	if rep.Extra == nil {
		rep.Extra = map[string]float64{}
	}
	for name, v := range e2e {
		rep.Extra["traced."+name] = v.Value
	}
}

// mean is the arithmetic mean (0 for an empty sample).
func mean(xs []float64) float64 { return ratio(sum(xs), float64(len(xs))) }

// libraryLayers computes the per-layer metrics of a traced library
// run. Solver layer times are means per solve, so they add up: gate +
// flatten + lia presolve + lia search + unattributed = core.solve_ms.
// Every solve's ledger was checked when it was taken (ledger.check).
// Work counters are totals over one pass of the instance set.
func libraryLayers(rep *report, s *libSetup, lr *libRun, tr *tracer) map[string]metric {
	m := layerMetrics(rep)
	self := tr.selfTimes()
	var solve []float64
	var tot ledger
	gateDecided := 0
	for _, smp := range lr.samples {
		solve = append(solve, smp.solveMS)
		tot.add(smp.ledger)
		if smp.gate {
			gateDecided++
		}
	}
	n := float64(len(lr.samples))
	passes := float64(lr.passes)
	set(m, "smtlib.parse_ms", mean(self["smtlib.parse"]))
	set(m, "smtlib.canon_ms", mean(lr.canonMS))
	set(m, "core.solve_ms", mean(solve))
	set(m, "gate.ms", tot.gateMS/n)
	set(m, "flatten.ms", tot.flattenMS/n)
	set(m, "lia.presolve_ms", tot.liaPresolveMS/n)
	set(m, "lia.search_ms", tot.liaSearchMS/n)
	set(m, "solve.unattributed_ms", tot.unattributed(sum(solve))/n)
	set(m, "validate.ms", mean(lr.validateMS))
	setCounts(m, tot, passes)
	set(m, "gate.decided_share", float64(gateDecided)/n)
	set(m, "latency_ms.p99", rep.Extra["latency_ms.p99"])
	return m
}

// setCounts sets the work counters and cache ratios of a ledger total,
// dividing counts by per (the number of passes, or 1).
func setCounts(m map[string]metric, tot ledger, per float64) {
	c := tot.counts
	set(m, "core.rounds", float64(c.CoreRounds)/per)
	set(m, "core.branches", float64(c.CoreBranches)/per)
	set(m, "core.branches_pruned", float64(c.CoreBranchesPrune)/per)
	set(m, "gate.calls", float64(c.GateCalls)/per)
	set(m, "gate.memo_hit_ratio", ratio(float64(tot.gateMemoHit), float64(tot.gateMemoHit+c.GateCalls)))
	set(m, "flatten.formula_size", float64(tot.flattenSize)/per)
	set(m, "pfa.sync_hit_ratio", ratio(float64(tot.syncHit), float64(tot.syncHit+tot.syncMiss)))
	set(m, "parikh.hit_ratio", ratio(float64(tot.parikhHit), float64(tot.parikhHit+tot.parikhMiss)))
	set(m, "lia.atoms", float64(c.LiaAtoms)/per)
	set(m, "lia.theory_conflicts", float64(c.LiaTheoryConfl)/per)
	set(m, "sat.conflicts", float64(c.SatConflicts)/per)
	set(m, "sat.decisions", float64(c.SatDecisions)/per)
	set(m, "sat.propagations", float64(c.SatPropagations)/per)
	set(m, "sat.restarts", float64(c.SatRestarts)/per)
	set(m, "simplex.pivots", float64(c.SimplexPivots)/per)
	set(m, "simplex.refactors", float64(c.SimplexRefactors)/per)
}

package main

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/lia"
	"repro/internal/smtlib"
	"repro/internal/strcon"
)

// libConfig fixes one library workload: the instance set, the
// per-instance deadline and the latency limit of within_slo_share.
type libConfig struct {
	pool     []problem
	deadline time.Duration
	sloMS    float64
	// passSeconds is about how long a pass takes at the parent commit
	// on a 2-core host; a run makes --seconds/passSeconds passes, at
	// least one. The count does not depend on how fast the host is, so
	// the per-instance medians rest on the same number of solves in
	// every run.
	passSeconds time.Duration
	// warmup solves the set once, unmeasured, before the first pass.
	// luhn repeats every instance each pass, so its passes would
	// otherwise depend on the order that filled the caches; tables
	// runs 230 instances once, where the fill order averages out.
	warmup bool
}

// libSetup is what a library run builds before it measures: the
// rendered instances and a pristine parse of each, against which SAT
// models are re-checked.
type libSetup struct {
	cfg        libConfig
	checks     []*smtlib.Script
	unwritable []string
}

func setupLibrary(workload string) (*libSetup, error) {
	var cfg libConfig
	var unwritable []string
	switch workload {
	case "tables":
		cfg.pool, unwritable = tablesPool()
		cfg.deadline = tablesDeadline
		cfg.sloMS = tablesSLOMS
		cfg.passSeconds = 15 * time.Second
	case "luhn":
		cfg.pool = luhnPool()
		cfg.deadline = luhnDeadline
		cfg.sloMS = luhnSLOMS
		cfg.passSeconds = 6500 * time.Millisecond
		cfg.warmup = true
	default:
		return nil, fmt.Errorf("not a library workload: %s", workload)
	}
	s := &libSetup{cfg: cfg, unwritable: unwritable, checks: make([]*smtlib.Script, len(cfg.pool))}
	for i, p := range cfg.pool {
		script, err := smtlib.Parse(p.text)
		if err != nil {
			return nil, fmt.Errorf("%s: rendered SMT-LIB does not parse: %w", p.name, err)
		}
		s.checks[i] = script
	}
	return s, nil
}

// Library workload constants. The deadlines settle every instance at
// the parent commit with room to spare; each latency limit sits between
// two instance-time clusters so a few percent of noise cannot move an
// instance across it.
const (
	tablesDeadline = 2500 * time.Millisecond
	tablesSLOMS    = 600
	luhnDeadline   = 5 * time.Second
	luhnSLOMS      = 1800
)

// solveSample is one instance solved once.
type solveSample struct {
	inst      int
	verdictMS float64 // parse + solve, what a library caller waits for
	solveMS   float64
	decided   bool
	failed    string // non-empty: wrong verdict or invalid model
	timedOut  bool
	gate      bool // decided by the over-approximation gate alone
	ledger    ledger
}

// libRun is the outcome of a library run.
type libRun struct {
	samples    []solveSample
	passes     int
	cpu        time.Duration
	validateMS []float64
	canonMS    []float64
	warmup     time.Duration
	warm       []solveSample // the unmeasured warm-up solves, checked like the rest
}

// runLibrary solves the whole instance set in complete passes, each
// in a seeded order. Passes are never cut short, so every instance is
// solved equally often and the percentiles do not depend on where the
// clock ran out.
func runLibrary(s *libSetup, rng *rand.Rand, passes int, tr *tracer) *libRun {
	out := &libRun{}
	if s.cfg.warmup {
		// Fill the solver's process-wide template caches in a fixed
		// order, so the measured passes do not depend on which seeded
		// order filled them.
		w0 := time.Now()
		for i := range s.cfg.pool {
			out.warm = append(out.warm, solveOne(s, i, &libRun{}, nil))
		}
		out.warmup = time.Since(w0)
	}
	cpu0 := cpuTime()
	for out.passes < passes {
		for _, i := range rng.Perm(len(s.cfg.pool)) {
			out.samples = append(out.samples, solveOne(s, i, out, tr))
		}
		out.passes++
	}
	out.cpu = cpuTime() - cpu0
	return out
}

func solveOne(s *libSetup, i int, out *libRun, tr *tracer) solveSample {
	p := s.cfg.pool[i]
	trace := tr.newTrace()
	t0 := time.Now()
	script, err := smtlib.Parse(p.text)
	t1 := time.Now()
	if err != nil {
		return solveSample{inst: i, failed: "parse: " + err.Error()}
	}
	ec := engine.WithTimeout(s.cfg.deadline)
	res := core.SolveCtx(script.Problem, core.Options{}, ec)
	t2 := time.Now()
	smp := solveSample{
		inst: i, verdictMS: ms(t2.Sub(t0)), solveMS: ms(t2.Sub(t1)),
		timedOut: ec.TimedOut(), gate: res.OverApproxDecided,
		ledger: ledgerOf(res.Stats.Snapshot()),
	}
	smp.decided = res.Status == core.StatusSat || res.Status == core.StatusUnsat
	var valDur time.Duration
	smp.failed, valDur = checkSolve(p.expected, script, s.checks[i], res)
	if valDur > 0 {
		out.validateMS = append(out.validateMS, ms(valDur))
	}
	if smp.failed == "" {
		smp.failed = smp.ledger.check(smp.solveMS)
	}
	if tr == nil {
		return smp
	}
	// Traced only: the cache key a server would compute for this input.
	tc := time.Now()
	_, cerr := smtlib.Canonicalize(s.checks[i].Problem)
	canonDur := time.Since(tc)
	if cerr == nil {
		out.canonMS = append(out.canonMS, ms(canonDur))
	}
	root := tr.record(trace, 0, "instance", t0, time.Since(t0))
	tr.record(trace, root, "smtlib.parse", t0, t1.Sub(t0))
	solve := tr.record(trace, root, "core.solve", t1, t2.Sub(t1))
	l := smp.ledger
	tr.derive(solve, "gate", l.gateMS)
	tr.derive(solve, "flatten", l.flattenMS)
	tr.derive(solve, "lia.presolve", l.liaPresolveMS)
	tr.derive(solve, "lia.search", l.liaSearchMS)
	tr.derive(solve, "unattributed", l.unattributed(smp.solveMS))
	if valDur > 0 {
		tr.record(trace, root, "strcon.validate", t2, valDur)
	}
	tr.record(trace, root, "smtlib.canon", tc, canonDur)
	return smp
}

// checkSolve compares a solve's verdict with the planted one and
// re-checks a SAT model with strcon Eval on check, a pristine parse of
// the text that was solved. It returns the failure (empty when the
// answer is right) and how long the re-check took.
func checkSolve(want bench.Expected, solved, check *smtlib.Script, res core.Result) (string, time.Duration) {
	if f := checkVerdict(want, res.Status); f != "" || res.Status != core.StatusSat {
		return f, 0
	}
	a, err := transport(solved, check, res.Model)
	if err != nil {
		return err.Error(), 0
	}
	tv := time.Now()
	ok := check.Problem.Eval(a)
	valDur := time.Since(tv)
	if !ok {
		return "sat model fails strcon.Eval on the benchmark's own parse", valDur
	}
	return "", valDur
}

// checkVerdict compares a settled verdict with the planted one; an
// UNKNOWN is undecided, not wrong.
func checkVerdict(want bench.Expected, got core.Status) string {
	switch {
	case got == core.StatusSat && want == bench.ExpectUnsat:
		return "sat on a planted-unsat instance"
	case got == core.StatusUnsat && want == bench.ExpectSat:
		return "unsat on a planted-sat instance"
	}
	return ""
}

// transport moves a model from the solved parse onto the pristine
// check parse. Parsing is deterministic, so both parses of one text
// number their variables alike, including the auxiliary variables the
// parser introduces for nested conversions; transport checks that
// every declared name agrees before copying by variable.
func transport(from, to *smtlib.Script, m *strcon.Assignment) (*strcon.Assignment, error) {
	for name, v := range from.StrVars {
		if w, ok := to.StrVars[name]; !ok || w != v {
			return nil, fmt.Errorf("the two parses disagree on string variable %s", name)
		}
	}
	for name, v := range from.IntVars {
		if w, ok := to.IntVars[name]; !ok || w != v {
			return nil, fmt.Errorf("the two parses disagree on integer variable %s", name)
		}
	}
	a := &strcon.Assignment{Str: map[strcon.Var]string{}, Int: lia.Model{}}
	if m == nil {
		return a, nil
	}
	for v, x := range m.Str {
		a.Str[v] = x
	}
	for v, x := range m.Int {
		a.Int[v] = x
	}
	return a, nil
}

// instanceStat is one library instance's outcome over a run.
type instanceStat struct {
	Name     string  `json:"name"`
	Solves   int     `json:"solves"`
	Decided  int     `json:"decided"`
	MedianMS float64 `json:"median_ms"`
	Expected string  `json:"expected"`
}

func benchLibrary(rep *report, workload string, seed int64, dur time.Duration, tr *tracer) error {
	s, setupS, err := timeSetup(func() (*libSetup, error) { return setupLibrary(workload) }, nil)
	if err != nil {
		return err
	}
	rep.Unwritable = s.unwritable
	if len(s.unwritable) > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d instance(s) have no SMT-LIB form and are not run:\n", len(s.unwritable))
		for _, u := range s.unwritable {
			fmt.Fprintln(os.Stderr, "  ", u)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	passes := int(dur / s.cfg.passSeconds)
	if passes < 1 {
		passes = 1
	}
	lr := runLibrary(s, rng, passes, tr)
	libraryMetrics(rep, s, lr, setupS, tr)
	return nil
}

// libraryMetrics fills the report of a library run.
func libraryMetrics(rep *report, s *libSetup, lr *libRun, setupS float64, tr *tracer) {
	var verdict []float64
	perInst := make([][]float64, len(s.cfg.pool))
	decidedBy := make([]int, len(s.cfg.pool))
	decided, within, failed := 0, 0, 0
	busy := 0.0
	for _, smp := range lr.samples {
		verdict = append(verdict, smp.verdictMS)
		perInst[smp.inst] = append(perInst[smp.inst], smp.verdictMS)
		busy += smp.verdictMS / 1000
		if smp.failed != "" {
			failed++
			rep.Failures = append(rep.Failures, s.cfg.pool[smp.inst].name+": "+smp.failed)
			continue
		}
		if smp.decided {
			decided++
			decidedBy[smp.inst]++
			if smp.verdictMS <= s.cfg.sloMS {
				within++
			}
		}
	}
	for _, smp := range lr.warm {
		if smp.failed != "" {
			failed++
			rep.Failures = append(rep.Failures, "warm-up: "+s.cfg.pool[smp.inst].name+": "+smp.failed)
		}
	}
	// Verdict percentiles are over each instance's median verdict time,
	// so an instance weighs the same however its few solves fell.
	var instMed []float64
	total := 0.0
	for i, xs := range perInst {
		instMed = append(instMed, median(xs))
		total += median(xs) / 1000
		rep.Instances = append(rep.Instances, instanceStat{Name: s.cfg.pool[i].name, Solves: len(xs),
			Decided: decidedBy[i], MedianMS: median(xs), Expected: s.cfg.pool[i].expected.String()})
	}
	n := float64(len(lr.samples))
	rep.Samples = map[string]int{"solves": len(lr.samples), "passes": lr.passes, "instances": len(s.cfg.pool),
		"warmup_solves": len(lr.warm)}
	rep.Extra = map[string]float64{"warmup_s": lr.warmup.Seconds()}
	m := withUnits(map[string]float64{
		"verdict_ms.p50":   quantile(instMed, 0.50),
		"verdict_ms.p95":   quantile(instMed, 0.95),
		"verdict_total_s":  total,
		"decided_share":    float64(decided) / n,
		"latency_ms.p50":   quantile(instMed, 0.50),
		"within_slo_share": float64(within) / n,
		"saturation_rps":   float64(decided) / busy,
		"setup_s":          setupS,
		"cpu_s":            lr.cpu.Seconds() / float64(lr.passes),
		"peak_rss_mb":      peakRSSMB(),
	})
	rep.Extra["latency_ms.p99"] = quantile(verdict, 0.99)
	rep.Result = result{Correct: failed == 0, Attempted: len(lr.samples) + len(lr.warm), Failed: failed, Metrics: m}
	if tr != nil {
		rep.Result.Metrics = libraryLayers(rep, s, lr, tr)
		keepTraced(rep, m)
	}
	rep.CountTotals, rep.CountsRepeat = countTotals(s, lr, rep)
}

// countTotals sums each instance's work counters once (one pass) over
// the instances that never hit their deadline, and checks that every
// solve of an instance repeated its counters exactly. The repeat flag
// is nil when no instance was solved twice (a single pass, as tables
// makes at 20 s): then only -check-counts across two runs compares
// counts.
func countTotals(s *libSetup, lr *libRun, rep *report) (*counts, *bool) {
	first := make([]*counts, len(s.cfg.pool))
	timedOut := make([]bool, len(s.cfg.pool))
	compared := 0
	repeat := true
	for _, smp := range lr.samples {
		if smp.timedOut {
			timedOut[smp.inst] = true
			continue
		}
		c := smp.ledger.counts
		if first[smp.inst] == nil {
			first[smp.inst] = &c
			continue
		}
		compared++
		if *first[smp.inst] != c {
			repeat = false
			rep.Failures = append(rep.Failures, s.cfg.pool[smp.inst].name+": work counters differ between two solves")
		}
	}
	var tot counts
	for i, c := range first {
		if c != nil && !timedOut[i] {
			tot.add(*c)
		}
	}
	rep.Samples["count_repeat_comparisons"] = compared
	if compared == 0 {
		return &tot, nil
	}
	return &tot, &repeat
}

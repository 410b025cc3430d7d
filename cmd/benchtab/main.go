// Command benchtab regenerates the evaluation tables of the paper
// (Tables 1, 2, and 3 of §9) with this reproduction's solver and the
// two in-repo baseline families.
//
// Usage:
//
//	benchtab -table 1 -per 40 -timeout 5s
//	benchtab -table 2 -per 30 -timeout 5s
//	benchtab -table 3 -loops 12 -timeout 10s
//	benchtab -table all -j 4
//	benchtab -table 3 -json > BENCH_BASELINE.json
//	benchtab -table 3 -loops 8 -compare BENCH_BASELINE.json
//
// -j runs the instances of each suite on N worker goroutines; the
// emitted tables are byte-identical for every worker count.
// -json emits a machine-readable report instead of the text tables.
// -compare runs the selected tables and prints per-suite mean_ms drift
// against a baseline -json report, flagging suites that slowed down by
// more than -tolerance percent (and more than an absolute noise floor)
// or whose verdict counts changed; the exit code is 1 when anything is
// flagged, so callers choose whether the step gates.
// -incremental=false disables the incremental refinement engine for
// A/B measurement. -cpuprofile/-memprofile write pprof profiles.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/bench"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("benchtab", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	table := fs.String("table", "all", "which table to regenerate: 1, 2, 3, or all")
	per := fs.Int("per", 30, "instances per suite (tables 1 and 2)")
	loops := fs.Int("loops", 12, "maximum checkLuhn loop count (table 3)")
	timeout := fs.Duration("timeout", 5*time.Second, "per-instance timeout")
	workers := fs.Int("j", 1, "instance-level worker goroutines per suite")
	jsonOut := fs.Bool("json", false, "emit a machine-readable JSON report instead of text tables")
	compare := fs.String("compare", "", "compare this run against a baseline -json report file and print per-suite drift")
	tolerance := fs.Float64("tolerance", 25, "percent mean_ms slowdown tolerated by -compare before a suite is flagged")
	incremental := fs.Bool("incremental", true, "use the incremental refinement engine (refine solver)")
	only := fs.String("solvers", "", "comma-separated solver names to run: refine, enum, split (default: all three)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchtab:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "benchtab:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}

	solvers := bench.SolversWith(bench.Config{Incremental: *incremental})
	if *only != "" {
		// Resolve each requested name, keeping the flag's order.
		byName := map[string]bench.Solver{}
		var names []string
		for _, s := range solvers {
			byName[s.Name] = s
			names = append(names, s.Name)
		}
		var sel []bench.Solver
		for _, name := range strings.Split(*only, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			s, ok := byName[name]
			if !ok {
				fmt.Fprintf(os.Stderr, "benchtab: unknown solver %q (have %s)\n",
					name, strings.Join(names, ", "))
				return 2
			}
			sel = append(sel, s)
		}
		if len(sel) == 0 {
			fmt.Fprintf(os.Stderr, "benchtab: no solver matches -solvers %q\n", *only)
			return 2
		}
		solvers = sel
	}
	rc := runTables(*table, *per, *loops, *timeout, *workers, *jsonOut, *compare, *tolerance, solvers)

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchtab:", err)
			return 1
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "benchtab:", err)
			return 1
		}
	}
	return rc
}

// buildReport runs the selected tables and collects the machine-
// readable report consumed by -json and -compare. A nil return means
// the table flag was invalid.
func buildReport(table string, per, loops int, timeout time.Duration, workers int, solvers []bench.Solver) *bench.JSONReport {
	rep := &bench.JSONReport{Config: bench.JSONConfig{
		TimeoutMS: timeout.Milliseconds(),
		Workers:   workers,
	}}
	addCfg := func(t string) { rep.Config.Tables = append(rep.Config.Tables, t) }
	switch table {
	case "1":
		addCfg("1")
		rep.Config.PerSuite = per
		bench.TableJSON(rep, "1", bench.Table1Suites(per), solvers, timeout, workers)
	case "2":
		addCfg("2")
		rep.Config.PerSuite = per
		bench.TableJSON(rep, "2", bench.Table2Suites(per), solvers, timeout, workers)
	case "3":
		addCfg("3")
		rep.Config.MaxLoops = loops
		bench.Table3JSON(rep, loops, solvers, timeout)
	case "all":
		rep.Config.Tables = []string{"1", "2", "3"}
		rep.Config.PerSuite = per
		rep.Config.MaxLoops = loops
		bench.TableJSON(rep, "1", bench.Table1Suites(per), solvers, timeout, workers)
		bench.TableJSON(rep, "2", bench.Table2Suites(per), solvers, timeout, workers)
		bench.Table3JSON(rep, loops, solvers, timeout)
	default:
		return nil
	}
	return rep
}

func runTables(table string, per, loops int, timeout time.Duration, workers int, jsonOut bool, compare string, tolerance float64, solvers []bench.Solver) int {
	if compare != "" {
		base, err := bench.ReadJSONFile(compare)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchtab:", err)
			return 1
		}
		rep := buildReport(table, per, loops, timeout, workers, solvers)
		if rep == nil {
			fmt.Fprintf(os.Stderr, "unknown table %q\n", table)
			return 2
		}
		cmp := bench.Compare(base, rep, tolerance)
		bench.WriteComparison(os.Stdout, cmp)
		if cmp.Regressions() > 0 || cmp.VerdictChanges() > 0 {
			return 1
		}
		return 0
	}
	if jsonOut {
		rep := buildReport(table, per, loops, timeout, workers, solvers)
		if rep == nil {
			fmt.Fprintf(os.Stderr, "unknown table %q\n", table)
			return 2
		}
		if err := bench.WriteJSON(os.Stdout, rep); err != nil {
			fmt.Fprintln(os.Stderr, "benchtab:", err)
			return 1
		}
		return 0
	}

	run1 := func() {
		fmt.Println("Table 1: basic string constraints")
		bench.Table(os.Stdout, bench.Table1Suites(per), solvers, timeout, workers)
		fmt.Println()
	}
	run2 := func() {
		fmt.Println("Table 2: string-number conversion")
		bench.Table(os.Stdout, bench.Table2Suites(per), solvers, timeout, workers)
		fmt.Println()
	}
	run3 := func() {
		fmt.Println("Table 3: checkLuhn with 2..N loops")
		bench.Table3(os.Stdout, loops, solvers, timeout)
		fmt.Println()
	}
	switch table {
	case "1":
		run1()
	case "2":
		run2()
	case "3":
		run3()
	case "all":
		run1()
		run2()
		run3()
	default:
		fmt.Fprintf(os.Stderr, "unknown table %q\n", table)
		return 2
	}
	return 0
}

// Command trausolve reads an SMT-LIB script (QF_S / QF_SLIA fragment)
// and decides it with the PFA-based string solver, printing sat (with a
// model), unsat, or unknown.
//
// Usage:
//
//	trausolve [-timeout 10s] [-model] [-stats] file.smt2
//	trausolve -            # read from stdin
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/smtlib"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run is the testable body of the command: exit 0 on sat/unsat, 1 on
// I/O or parse errors, 2 on usage errors, 3 on unknown.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("trausolve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	timeout := fs.Duration("timeout", 10*time.Second, "solver budget")
	model := fs.Bool("model", true, "print the model on sat")
	stats := fs.Bool("stats", false, "print the solve statistics tree")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: trausolve [-timeout d] [-model] [-stats] file.smt2 | -")
		return 2
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(stderr, "trausolve:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(stderr, "trausolve:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(stderr, "trausolve:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stderr, "trausolve:", err)
			}
		}()
	}

	var src []byte
	var err error
	if fs.Arg(0) == "-" {
		src, err = io.ReadAll(stdin)
	} else {
		src, err = os.ReadFile(fs.Arg(0))
	}
	if err != nil {
		fmt.Fprintln(stderr, "trausolve:", err)
		return 1
	}

	script, err := smtlib.Parse(string(src))
	if err != nil {
		fmt.Fprintln(stderr, "trausolve:", err)
		return 1
	}

	if !script.CheckSat {
		fmt.Fprintln(stderr, "trausolve: script has no (check-sat)")
		return 2
	}
	res := core.Solve(script.Problem, core.Options{Timeout: *timeout})
	fmt.Fprintln(stdout, res.Status)
	if res.Status == core.StatusSat && *model {
		names := make([]string, 0, len(script.StrVars))
		for name := range script.StrVars {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(stdout, "  %s = %q\n", name, res.Model.Str[script.StrVars[name]])
		}
		inames := make([]string, 0, len(script.IntVars))
		for name := range script.IntVars {
			inames = append(inames, name)
		}
		sort.Strings(inames)
		for _, name := range inames {
			fmt.Fprintf(stdout, "  %s = %s\n", name, res.Model.Int.Value(script.IntVars[name]))
		}
	}
	if *stats {
		res.Stats.Write(stdout, "solve")
	}
	if res.Status == core.StatusUnknown {
		return 3
	}
	return 0
}

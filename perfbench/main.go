// Command perfbench is the repository's benchmark. Each workload renders
// its inputs as SMT-LIB text from the internal/bench generators, drives
// them through the public entry points (smtlib.Parse and core.SolveCtx
// for the library; POST /solve on an in-process server, or on a router
// over two in-process shards, for serving), checks every answer, and
// prints one JSON result line. Build and run it with run.sh; README.md
// describes the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// hostFacts are recorded with every run, never used to normalize.
type hostFacts struct {
	NumCPU        int     `json:"nproc"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	GoVersion     string  `json:"go_version"`
	CalibrationMS float64 `json:"calibration_ms"`
}

// report is the full record of a run, written next to the build
// outputs: everything the result line carries plus what explains it.
type report struct {
	Workload     string             `json:"workload"`
	Seed         int64              `json:"seed"`
	Trace        bool               `json:"trace"`
	Host         hostFacts          `json:"host"`
	Result       result             `json:"result"`
	Kinds        map[string]string  `json:"kinds"` // per-layer metric -> "count" or "timing"
	Extra        map[string]float64 `json:"extra,omitempty"`
	Samples      map[string]int     `json:"samples"`
	Unwritable   []string           `json:"unwritable"`
	Failures     []string           `json:"failures"`
	CountTotals  *counts            `json:"count_totals,omitempty"`
	CountsRepeat *bool              `json:"counts_repeat,omitempty"`
	OpenLoop     *openLoopCheck     `json:"open_loop,omitempty"`
	Overhead     map[string]float64 `json:"tracing_overhead,omitempty"`
	SpansFile    string             `json:"spans_file,omitempty"`
	Instances    []instanceStat     `json:"instances,omitempty"`
}

// e2eUnits are the units of the end-to-end metrics.
var e2eUnits = map[string]string{
	"verdict_ms.p50": "ms", "verdict_ms.p95": "ms", "verdict_total_s": "s",
	"decided_share": "share", "latency_ms.p50": "ms",
	"within_slo_share": "share", "saturation_rps": "1/s", "setup_s": "s",
	"cpu_s": "s", "peak_rss_mb": "MiB",
}

// withUnits attaches the unit of each end-to-end metric.
func withUnits(vals map[string]float64) map[string]metric {
	m := make(map[string]metric, len(vals))
	for name, v := range vals {
		m[name] = metric{v, e2eUnits[name]}
	}
	return m
}

// openLoopCheck records whether the generator kept its schedule.
type openLoopCheck struct {
	LagP99MS float64 `json:"lag_ms_p99"`
	BoundMS  float64 `json:"bound_ms"`
	Valid    bool    `json:"valid"`
}

// A run builds its set-up at least setupMinRepeats times and until
// setupMinSeconds have passed, at most setupMaxRepeats times; setup_s is
// the median build time, garbage collection excluded. A cheap set-up is repeated often enough that its median
// does not rest on a few timings of a few milliseconds.
const (
	setupMinRepeats = 5
	setupMaxRepeats = 51
	setupMinSeconds = 1.0
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "tables, luhn, serve or routed")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 20, "measured seconds")
	trace := fs.Int("trace", 0, "1 records spans and prints the per-layer metrics")
	outDir := fs.String("out", ".bench_build/reports", "directory for the run report and spans")
	checkCounts := fs.Bool("check-counts", false, "compare the count totals of two reports given as arguments")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *checkCounts {
		return compareCounts(fs.Args(), stdout, stderr)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		return 2
	}
	if runtime.NumCPU() >= 2 {
		runtime.GOMAXPROCS(2) // the load is sized for 2 cores
	}
	rep := &report{Workload: *workload, Seed: *seed, Trace: *trace == 1, Kinds: map[string]string{}}
	rep.Host = hostFacts{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), CalibrationMS: calibrate()}
	tr := newTracer(rep.Trace)
	dur := time.Duration(*seconds) * time.Second

	var err error
	switch *workload {
	case "tables", "luhn":
		err = benchLibrary(rep, *workload, *seed, dur, tr)
	case "serve", "routed":
		err = benchServe(rep, *workload, *seed, dur, tr)
	default:
		err = fmt.Errorf("unknown workload %q (want tables, luhn, serve or routed)", *workload)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if len(rep.Failures) > 0 {
		rep.Result.Correct = false
	}
	if err := writeReport(rep, *outDir, tr, stderr); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(rep.Result)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !rep.Result.Correct {
		for _, f := range rep.Failures {
			fmt.Fprintln(stderr, "perfbench: FAILED:", f)
		}
		return 1
	}
	return 0
}

// calibrationSink keeps the calibration loop from being optimized away.
var calibrationSink uint64

// calibrate times a fixed integer workload, so a report shows how fast
// the host was when it ran.
func calibrate() float64 {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 50_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	calibrationSink = x
	return ms(time.Since(start))
}

// timeSetup runs build repeatedly (see setupMinRepeats) and returns the
// last result with the median duration in seconds; release tears down
// the earlier ones.
func timeSetup[T any](build func() (T, error), release func(T)) (T, float64, error) {
	var durs []float64
	var last T
	for i := 0; i < setupMaxRepeats && (i < setupMinRepeats || sum(durs) < setupMinSeconds); i++ {
		// Each build starts from a collected heap and runs with the
		// collector off, so its time does not depend on whether a
		// collection happened to start inside it.
		runtime.GC()
		gc := debug.SetGCPercent(-1)
		start := time.Now()
		v, err := build()
		d := time.Since(start)
		debug.SetGCPercent(gc)
		if err != nil {
			if i > 0 && release != nil {
				release(last)
			}
			return v, 0, err
		}
		durs = append(durs, d.Seconds())
		if i > 0 && release != nil {
			release(last)
		}
		last = v
	}
	return last, median(durs), nil
}

// writeReport stores the run report (and the spans of a traced run)
// under dir. A traced run also reports its tracing overhead against
// the untraced report of the same workload and seed, when one exists.
func writeReport(rep *report, dir string, tr *tracer, stderr io.Writer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("report dir: %w", err)
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", rep.Workload, rep.Seed))
	if tr != nil {
		rep.SpansFile = base + "-spans.jsonl"
		if err := tr.write(rep.SpansFile); err != nil {
			return err
		}
		if prev, err := readReport(base + "-trace0.json"); err == nil {
			rep.Overhead = map[string]float64{}
			for name, untraced := range prev.Result.Metrics {
				if traced, ok := rep.Extra["traced."+name]; ok {
					rep.Overhead[name] = traced - untraced.Value
				}
			}
			fmt.Fprintf(stderr, "perfbench: tracing overhead (traced - untraced): %v\n", rep.Overhead)
		} else if !errors.Is(err, os.ErrNotExist) {
			return err
		}
	}
	path := base + "-trace0.json"
	if tr != nil {
		path = base + "-trace1.json"
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding report: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing report: %w", err)
	}
	return nil
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	return &r, nil
}

// compareCounts checks that two reports carry identical count totals.
func compareCounts(paths []string, stdout, stderr io.Writer) int {
	if len(paths) != 2 {
		fmt.Fprintln(stderr, "perfbench: -check-counts needs two report files")
		return 2
	}
	var tot [2]*counts
	for i, p := range paths {
		r, err := readReport(p)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 2
		}
		if r.CountTotals == nil {
			fmt.Fprintf(stderr, "perfbench: %s has no count totals\n", p)
			return 2
		}
		tot[i] = r.CountTotals
	}
	a, _ := json.Marshal(tot[0])
	b, _ := json.Marshal(tot[1])
	if *tot[0] != *tot[1] {
		fmt.Fprintf(stdout, "counts differ:\n  %s\n  %s\n", a, b)
		return 1
	}
	fmt.Fprintf(stdout, "counts repeat: %s\n", a)
	return 0
}

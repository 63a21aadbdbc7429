// Command bench is the repository's benchmark: four seeded workloads over
// the HE-CNN stack, each run in its own OS process, every metric printed
// by name with its unit, and a non-zero exit when any output is wrong.
// BENCHMARK.json at the repository root is its contract with the driver;
// bench/README.md says what every workload and metric is for.
//
//	bash bench/run.sh -seed 1                 every workload, untraced
//	bash bench/run.sh -seed 1 -trace 1        …plus the per-layer (traced) pass
//	bash bench/run.sh -workload dse_explore   one workload, the driver's form
//	bash bench/run.sh -compare A.json B.json  apply the bounds to two result sets
//
// bench/ is a module of its own; run.sh builds it and runs it from the
// root of the checkout, which is where the default -out path starts.
//
// With -workload the last line of standard output is the one JSON object
// the driver reads; everything else goes to standard error.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// options are the command's flags.
type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     int
	runs      int
	varySeed  bool
	out       string
	compare   bool
	anyHost   bool
	printSpec bool
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "run this one workload in this process and end with the driver's JSON line")
	fs.Int64Var(&o.seed, "seed", 1, "seed for images, weights, keys, encryptors and arrival schedules")
	fs.Float64Var(&o.seconds, "seconds", runSeconds, "how long each run measures")
	fs.IntVar(&o.trace, "trace", 0, "1 = traced pass: per-layer metrics (with -workload, instead of the end-to-end ones)")
	fs.IntVar(&o.runs, "runs", 1, "without -workload: invocations per workload (≥ 4 also prints quartile spreads)")
	fs.BoolVar(&o.varySeed, "vary-seed", false, "without -workload: run i uses seed+i, as the driver's spread check does")
	fs.StringVar(&o.out, "out", filepath.Join("bench", "out"), "directory for result and trace files")
	fs.BoolVar(&o.compare, "compare", false, "compare two results.json files given as arguments: baseline, then candidate")
	fs.BoolVar(&o.anyHost, "any-host", false, "with -compare: compare even when the host descriptors differ")
	fs.BoolVar(&o.printSpec, "print-spec", false, "print BENCHMARK.json as the tables in spec.go define it")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.trace != 0 && o.trace != 1 {
		fmt.Fprintln(stderr, "bench: -trace takes 0 or 1")
		return 2
	}

	var err error
	switch {
	case o.printSpec:
		err = printSpec(stdout)
	case o.compare:
		return runCompare(fs.Args(), o.anyHost, stdout, stderr)
	case o.workload != "":
		err = runOne(o, stdout, stderr)
	default:
		err = runAll(o, stdout, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}

func printSpec(w io.Writer) error {
	b, err := json.MarshalIndent(benchmarkSpec(), "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

func (o options) config() runConfig {
	return runConfig{Seed: o.seed, Seconds: o.seconds, Trace: o.trace == 1}
}

// errIncorrect is returned once the result has been written: the run
// finished, but some output was wrong.
var errIncorrect = errors.New("incorrect output")

// runOne runs a single workload in this process: the driver's entry
// point, and what runAll re-executes itself into.
func runOne(o options, stdout, stderr io.Writer) error {
	w, err := workloadByName(o.workload)
	if err != nil {
		return err
	}
	res, err := w.run(w, o.config())
	if err != nil {
		return fmt.Errorf("%s: %w", w.Name, err)
	}
	res.Host = describeHost()
	if err := res.save(o.out); err != nil {
		return err
	}
	for _, f := range res.Failures {
		fmt.Fprintf(stderr, "bench: %s: %s\n", w.Name, f)
	}
	if !res.Correct {
		// No result line: the driver takes the exit code, a person the
		// reasons above and the saved file.
		return fmt.Errorf("%s: %w (%d of %d operations failed)", w.Name, errIncorrect, res.Failed, res.Attempted)
	}
	return res.writeDriverLine(stdout)
}

// resultSet is what a full run leaves in <out>/results.json and what
// -compare reads: the host and every run of every workload.
type resultSet struct {
	Host hostInfo     `json:"host"`
	Runs []*runResult `json:"runs"`
}

// runAll runs every workload, each invocation in a process of its own so
// that one workload's peak memory and garbage are not the next one's
// (the Makefile documents a 3.5× inflation when they shared a process),
// prints every metric with its unit, and fails if any output was wrong.
func runAll(o options, stdout, stderr io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	set := resultSet{Host: describeHost()}
	failed := false
	child := func(w workloadSpec, seed int64, trace int) *runResult {
		args := []string{
			"-workload", w.Name, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
			"-trace", strconv.Itoa(trace), "-out", o.out,
		}
		name := w.Name + ".json"
		if trace == 1 {
			name = w.Name + ".trace.json"
		}
		path := filepath.Join(o.out, name)
		// Whatever an earlier run left there is not this child's result.
		if err := os.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			failed = true
			return nil
		}
		cmd := exec.Command(self, args...)
		cmd.Stdout = io.Discard // the child's driver line; its result file says more
		cmd.Stderr = stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "bench: %s (seed %d, trace %d): %v\n", w.Name, seed, trace, err)
			failed = true
		}
		res, err := readResult(path)
		if err != nil {
			return nil // the child died before it could write one
		}
		res.Spans, res.ServerTraces = nil, nil // they stay in the child's own file
		return res
	}

	for _, w := range workloads {
		var untraced []*runResult
		for i := 0; i < o.runs; i++ {
			seed := o.seed
			if o.varySeed {
				seed += int64(i)
			}
			if res := child(w, seed, 0); res != nil {
				untraced = append(untraced, res)
				set.Runs = append(set.Runs, res)
			}
		}
		printRuns(stdout, w, untracedSpecs, untraced)
		if o.trace == 1 {
			if res := child(w, o.seed, 1); res != nil {
				set.Runs = append(set.Runs, res)
				printRuns(stdout, w, perLayer, []*runResult{res})
				printOverhead(stdout, untraced, res)
			}
		}
	}
	if err := writeJSON(filepath.Join(o.out, "results.json"), set); err != nil {
		return err
	}
	if failed {
		return errIncorrect
	}
	return nil
}

func readResult(path string) (*runResult, error) {
	var r runResult
	if err := readJSON(path, &r); err != nil {
		return nil, err
	}
	return &r, nil
}

// printRuns prints one workload's metrics: the median over its runs, the
// sample count behind a percentile, and from four runs on the quartile
// spread as a share of the median (the driver's steadiness measure).
func printRuns(w io.Writer, wl workloadSpec, specs []metricSpec, runs []*runResult) {
	if len(runs) == 0 {
		return
	}
	pass := "end-to-end"
	if runs[0].Trace {
		pass = "per-layer (traced)"
	}
	fmt.Fprintf(w, "\n%s — %s, %d run(s), seed %d, %g s\n", wl.Name, pass, len(runs), runs[0].Seed, runs[0].Seconds)
	for _, m := range specs {
		if !m.appliesTo(wl.Name) {
			continue
		}
		var vals []float64
		for _, r := range runs {
			if v, ok := r.Metrics[m.Name]; ok {
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 {
			continue
		}
		line := fmt.Sprintf("  %-34s %14.6g %-6s", m.Name, median(vals), m.Unit)
		if n := runs[0].Samples[m.Name]; n > 0 {
			line += fmt.Sprintf(" n=%d", n)
		}
		if len(vals) >= 4 {
			line += fmt.Sprintf(" spread=%.2f%%", 100*relativeSpread(vals))
			if m.Bound > 0 && !m.Abs {
				line += fmt.Sprintf(" (bound %.0f%%)", 100*m.Bound)
			}
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
	failed, attempted := 0, 0
	for _, r := range runs {
		failed += r.Failed
		attempted += r.Attempted
	}
	fmt.Fprintf(w, "  %-34s %14d of %d\n", "failed", failed, attempted)
}

// printOverhead prints what attaching every telemetry hook cost: the
// traced pass's median latency against the untraced one's.
func printOverhead(w io.Writer, untraced []*runResult, traced *runResult) {
	var base []float64
	for _, r := range untraced {
		base = append(base, r.Metrics["latency_ms_p50"])
	}
	b, t := median(base), traced.Metrics["gen.latency_ms_p50"]
	if b > 0 && t > 0 {
		fmt.Fprintf(w, "  %-34s %14.3g %-6s (traced p50 %.4g ms vs untraced %.4g ms)\n", "trace_overhead_pct", 100*(t/b-1), "%", t, b)
	}
}

// Command benchjson is the CI kernel gate. It reads `go test -bench`
// output on stdin, echoes it to stdout so it still reads like a normal
// bench run, and writes the parsed rows as a JSON report to -out.
//
// Repeated benchmark names (a `go test -count=N` run) collapse into one
// row per name carrying the per-metric median, so both the committed
// baseline and the gate's fresh measurement are median-of-3 instead of a
// single noisy sample.
//
// With -baseline it compares the fresh rows against a committed report
// and exits nonzero when any row present in both is more than 25% slower.
// Rows missing from the baseline are reported but never fail the run, so
// adding a benchmark does not break CI.
//
// Usage:
//
//	go test -bench=Kernel_ -benchtime=5x -count=3 -run='^$' . | benchjson -out BENCH_kernels.json
//	benchjson -out /dev/null -baseline BENCH_kernels.json < bench.txt
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// regressPct is the gate's threshold: a row fails when its ns/op exceeds
// the baseline's by more than this percentage.
const regressPct = 25

// Benchmark is one parsed result line.
type Benchmark struct {
	Name        string  `json:"name"` // trimmed: no "Benchmark" prefix, no -GOMAXPROCS suffix
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
}

// Report is the JSON document written to -out.
type Report struct {
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	out := flag.String("out", "BENCH_kernels.json", "JSON report path")
	baseline := flag.String("baseline", "", "committed report to compare against; exit nonzero on a regression of more than 25% (empty disables)")
	flag.Parse()

	var rows []Benchmark
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line)
		if b, ok := parseLine(line); ok {
			rows = append(rows, b)
		}
	}
	if err := sc.Err(); err != nil {
		fatal(fmt.Errorf("reading stdin: %w", err))
	}
	rep := Report{Benchmarks: mergeDuplicates(rows)}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d benchmarks to %s\n", len(rep.Benchmarks), *out)

	if *baseline == "" {
		return
	}
	data, err = os.ReadFile(*baseline)
	if err != nil {
		fatal(fmt.Errorf("baseline: %w", err))
	}
	var base Report
	if err := json.Unmarshal(data, &base); err != nil {
		fatal(fmt.Errorf("baseline %s: %w", *baseline, err))
	}
	if !compare(os.Stderr, rep, base) {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
	os.Exit(1)
}

// mergeDuplicates collapses repeated benchmark names into one row per
// name carrying the per-metric median, in first-appearance order.
func mergeDuplicates(bs []Benchmark) []Benchmark {
	var order []string
	groups := map[string][]Benchmark{}
	for _, b := range bs {
		if _, ok := groups[b.Name]; !ok {
			order = append(order, b.Name)
		}
		groups[b.Name] = append(groups[b.Name], b)
	}
	out := make([]Benchmark, 0, len(order))
	for _, name := range order {
		g := groups[name]
		med := func(f func(Benchmark) float64) float64 {
			vals := make([]float64, len(g))
			for i, b := range g {
				vals[i] = f(b)
			}
			return median(vals)
		}
		out = append(out, Benchmark{
			Name:        name,
			Iterations:  g[0].Iterations,
			NsPerOp:     med(func(b Benchmark) float64 { return b.NsPerOp }),
			BytesPerOp:  int64(med(func(b Benchmark) float64 { return float64(b.BytesPerOp) })),
			AllocsPerOp: int64(med(func(b Benchmark) float64 { return float64(b.AllocsPerOp) })),
		})
	}
	return out
}

// median returns the middle value (mean of the two middles for even n).
// vals is mutated by sorting.
func median(vals []float64) float64 {
	sort.Float64s(vals)
	n := len(vals)
	if n%2 == 1 {
		return vals[n/2]
	}
	return (vals[n/2-1] + vals[n/2]) / 2
}

// compare writes one verdict line per fresh row to w and returns false
// when any row in both reports is slower than baseline × (1 + 25%).
func compare(w io.Writer, rep, base Report) bool {
	old := make(map[string]float64, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		old[b.Name] = b.NsPerOp
	}
	ok := true
	for _, b := range rep.Benchmarks {
		was, found := old[b.Name]
		if !found || was == 0 {
			fmt.Fprintf(w, "benchjson: %s: not in baseline, skipping\n", b.Name)
			continue
		}
		delta := 100 * (b.NsPerOp - was) / was
		if b.NsPerOp > was*(1+regressPct/100.0) {
			fmt.Fprintf(w, "benchjson: REGRESSION %s: %.0f ns/op vs baseline %.0f (%+.1f%% > +%d%% allowed)\n",
				b.Name, b.NsPerOp, was, delta, regressPct)
			ok = false
			continue
		}
		fmt.Fprintf(w, "benchjson: %s: %.0f ns/op vs baseline %.0f (%+.1f%%)\n", b.Name, b.NsPerOp, was, delta)
	}
	return ok
}

// parseLine recognizes `BenchmarkName-8  N  12345 ns/op [B/op] [allocs/op]`.
func parseLine(line string) (Benchmark, bool) {
	f := strings.Fields(line)
	if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
		return Benchmark{}, false
	}
	name := strings.TrimPrefix(f[0], "Benchmark")
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: name, Iterations: iters}
	seenNs := false
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		switch f[i+1] {
		case "ns/op":
			b.NsPerOp = v
			seenNs = true
		case "B/op":
			b.BytesPerOp = int64(v)
		case "allocs/op":
			b.AllocsPerOp = int64(v)
		}
	}
	return b, seenNs
}

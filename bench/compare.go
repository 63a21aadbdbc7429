package main

// -compare A.json B.json: the regression rule of the benchmark applied to
// two result sets (A the baseline, B the candidate). For every pairing of
// end-to-end metric and workload it prints one row and one verdict:
//
//	within-bound  B's median is no worse than A's by more than the bound
//	worse         it is, and the run-to-run spread is narrower than the bound
//	unresolved    the spread is wider than the bound, so neither can be said
//
// Sets from different machines are refused unless -any-host is given.

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// quartiles returns Q1 and Q3 as Python's statistics.quantiles(v, n=4)
// computes them (the exclusive method), which is what the driver uses.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4 // outside [0,4] at the clamps: Python extrapolates, so do we
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// relativeSpread is the interquartile range as a share of the median.
func relativeSpread(v []float64) float64 {
	med := median(v)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return (q3 - q1) / math.Abs(med)
}

// verdict applies one metric's bound to baseline and candidate values.
func verdict(m metricSpec, base, cand []float64) (string, float64, float64) {
	mb, mc := median(base), median(cand)
	worse := mc - mb
	if m.Better == "higher" {
		worse = -worse
	}
	spread := func(v []float64) float64 {
		q1, q3 := quartiles(v)
		return q3 - q1
	}
	sp := math.Max(spread(base), spread(cand))
	if !m.Abs && mb != 0 {
		worse /= math.Abs(mb)
		sp /= math.Abs(mb)
	}
	switch {
	case sp > m.Bound:
		return "unresolved", worse, sp
	case worse > m.Bound:
		return "worse", worse, sp
	default:
		return "within-bound", worse, sp
	}
}

func runCompare(files []string, anyHost bool, stdout, stderr io.Writer) int {
	if len(files) != 2 {
		fmt.Fprintln(stderr, "bench: -compare takes two result files: baseline.json candidate.json")
		return 2
	}
	var sets [2]resultSet
	for i, f := range files {
		if err := readJSON(f, &sets[i]); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
	}
	if diff := sets[0].Host.differsFrom(sets[1].Host); len(diff) > 0 {
		fmt.Fprintf(stderr, "bench: %s and %s were measured on different hosts:\n", files[0], files[1])
		for _, d := range diff {
			fmt.Fprintln(stderr, "  "+d)
		}
		if !anyHost {
			fmt.Fprintln(stderr, "bench: refusing to compare them (-any-host overrides)")
			return 2
		}
	}
	fmt.Fprintf(stdout, "baseline  %s  commit %s  %s\ncandidate %s  commit %s  %s\n",
		files[0], sets[0].Host.Commit, sets[0].Host.StartTime, files[1], sets[1].Host.Commit, sets[1].Host.StartTime)

	values := func(set resultSet, workload, metric string) (vals []float64, seeds map[int64]bool) {
		seeds = map[int64]bool{}
		for _, r := range set.Runs {
			if r.Workload != workload || r.Trace {
				continue
			}
			if v, ok := r.Metrics[metric]; ok {
				vals = append(vals, v)
				seeds[r.Seed] = true
			}
		}
		return vals, seeds
	}

	anyWorse := false
	fmt.Fprintf(stdout, "%-18s %-20s %12s %12s %9s %9s %8s  %s\n", "workload", "metric", "baseline", "candidate", "worse", "spread", "bound", "verdict")
	for _, w := range workloads {
		for _, m := range untracedSpecs {
			if !m.appliesTo(w.Name) {
				continue
			}
			base, seedsA := values(sets[0], w.Name, m.Name)
			cand, seedsB := values(sets[1], w.Name, m.Name)
			if len(base) == 0 || len(cand) == 0 {
				fmt.Fprintf(stdout, "%-18s %-20s %12s %12s %9s %9s %8s  %s\n", w.Name, m.Name, "-", "-", "-", "-", "-", "missing")
				anyWorse = true
				continue
			}
			v, worse, sp := verdict(m, base, cand)
			note := ""
			if !sameSeeds(seedsA, seedsB) {
				note = " (different seeds)"
			}
			pct := func(x float64) string {
				if m.Abs {
					return fmt.Sprintf("%+.4g", x)
				}
				return fmt.Sprintf("%+.2f%%", 100*x)
			}
			fmt.Fprintf(stdout, "%-18s %-20s %12.6g %12.6g %9s %9s %8s  %s%s\n",
				w.Name, m.Name, median(base), median(cand), pct(worse), pct(sp), pct(m.Bound), v, note)
			if v == "worse" {
				anyWorse = true
			}
		}
	}
	if anyWorse {
		return 1
	}
	return 0
}

func sameSeeds(a, b map[int64]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for s := range a {
		if !b[s] {
			return false
		}
	}
	return true
}

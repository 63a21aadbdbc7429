package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestGate(t *testing.T) {
	t.Run("parseLine", func(t *testing.T) {
		cases := []struct {
			line string
			ok   bool
			want Benchmark
		}{
			{"BenchmarkKernel_NTTForward-8   \t       5\t   2273521 ns/op", true,
				Benchmark{Name: "Kernel_NTTForward", Iterations: 5, NsPerOp: 2273521}},
			{"BenchmarkKernel_NTTForward     5   2273521 ns/op", true,
				Benchmark{Name: "Kernel_NTTForward", Iterations: 5, NsPerOp: 2273521}},
			{"BenchmarkKernel_Rot-2-16  3  100.5 ns/op  64 B/op  2 allocs/op", true,
				Benchmark{Name: "Kernel_Rot-2", Iterations: 3, NsPerOp: 100.5, BytesPerOp: 64, AllocsPerOp: 2}},
			{"goos: linux", false, Benchmark{}},
			{"PASS", false, Benchmark{}},
			{"ok  \tfxhenn\t1.234s", false, Benchmark{}},
			{"BenchmarkKernel_NTTForward-8   --- FAIL: oops", false, Benchmark{}},
			{"BenchmarkKernel_NTTForward-8   5   64 B/op  1 allocs/op", false, Benchmark{}},
		}
		for _, c := range cases {
			got, ok := parseLine(c.line)
			if ok != c.ok || ok && got != c.want {
				t.Errorf("parseLine(%q) = %+v, %v; want %+v, %v", c.line, got, ok, c.want, c.ok)
			}
		}
	})

	t.Run("median of 3", func(t *testing.T) {
		got := mergeDuplicates([]Benchmark{
			{Name: "Kernel_A", Iterations: 5, NsPerOp: 300, BytesPerOp: 8},
			{Name: "Kernel_B", Iterations: 5, NsPerOp: 7},
			{Name: "Kernel_A", Iterations: 5, NsPerOp: 100, BytesPerOp: 4},
			{Name: "Kernel_A", Iterations: 5, NsPerOp: 900, BytesPerOp: 2},
		})
		want := []Benchmark{
			{Name: "Kernel_A", Iterations: 5, NsPerOp: 300, BytesPerOp: 4},
			{Name: "Kernel_B", Iterations: 5, NsPerOp: 7},
		}
		if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
			t.Fatalf("mergeDuplicates = %+v, want %+v", got, want)
		}
	})

	base := Report{Benchmarks: []Benchmark{{Name: "Kernel_A", NsPerOp: 1000}}}
	cases := []struct {
		name   string
		row    Benchmark
		pass   bool
		report string
	}{
		{"faster", Benchmark{Name: "Kernel_A", NsPerOp: 900}, true, "-10.0%"},
		{"+24% passes", Benchmark{Name: "Kernel_A", NsPerOp: 1240}, true, "+24.0%"},
		{"+26% fails", Benchmark{Name: "Kernel_A", NsPerOp: 1260}, false, "REGRESSION Kernel_A"},
		{"missing from baseline", Benchmark{Name: "Kernel_New", NsPerOp: 1e9}, true, "Kernel_New: not in baseline"},
	}
	for _, c := range cases {
		t.Run("baseline "+c.name, func(t *testing.T) {
			var w bytes.Buffer
			if got := compare(&w, Report{Benchmarks: []Benchmark{c.row}}, base); got != c.pass {
				t.Errorf("compare = %v, want %v\n%s", got, c.pass, w.String())
			}
			if !strings.Contains(w.String(), c.report) {
				t.Errorf("report %q does not mention %q", w.String(), c.report)
			}
		})
	}
}

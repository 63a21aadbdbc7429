package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json is written by hand of `-print-spec`; this keeps it equal
// to the tables the runner reports from, and inside the driver's limits.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(raw))
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	var got []string
	for k := range keys {
		got = append(got, k)
	}
	sort.Strings(got)
	if want := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}; !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json keys %v, want exactly %v", got, want)
	}
	var onDisk benchmarkJSON
	if err := json.Unmarshal(raw, &onDisk); err != nil {
		t.Fatal(err)
	}
	spec := benchmarkSpec()
	if !reflect.DeepEqual(onDisk, spec) {
		t.Error("BENCHMARK.json differs from spec.go; regenerate it with `bash bench/run.sh -print-spec > BENCHMARK.json`")
	}

	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", spec.RunSeconds)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q outside [A-Za-z0-9_.-]{1,64}", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	for _, w := range spec.Workloads {
		name(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	hasSetup := false
	for _, m := range spec.EndToEnd {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
		if m.Name == "setup_s" {
			hasSetup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !hasSetup {
		t.Error("end_to_end needs setup_s in s, lower is better")
	}
	for _, m := range spec.PerLayer {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
	}
	for _, m := range extras {
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
			t.Errorf("extra metric %q (%q) outside the charset", m.Name, m.Unit)
		}
	}
}

// Every workload, untraced and traced, at three operations on the tiny
// parameter set: set-up, correctness gate, replay, the driver's JSON
// schema and the metric names. No timing is asserted.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			mode := "untraced"
			if trace {
				mode = "traced"
			}
			t.Run(w.Name+"/"+mode, func(t *testing.T) {
				res, err := w.run(w, runConfig{Seed: 3, Seconds: 5, Trace: trace, Small: true, MaxOps: 3})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 3 {
					t.Fatalf("correct=%v attempted=%d failed=%d: %v", res.Correct, res.Attempted, res.Failed, res.Failures)
				}
				for n := range res.Metrics {
					if !nameRE.MatchString(n) {
						t.Errorf("metric name %q outside the charset", n)
					}
				}

				var out bytes.Buffer
				if err := res.writeDriverLine(&out); err != nil {
					t.Fatal(err)
				}
				if strings.Count(out.String(), "\n") != 1 {
					t.Fatalf("driver line is not one line: %q", out.String())
				}
				var line map[string]json.RawMessage
				if err := json.Unmarshal(out.Bytes(), &line); err != nil {
					t.Fatal(err)
				}
				if len(line) != 4 {
					t.Errorf("driver line has keys %v, want exactly correct, attempted, failed, metrics", line)
				}
				var parsed driverLine
				if err := json.Unmarshal(out.Bytes(), &parsed); err != nil {
					t.Fatal(err)
				}
				want := specFor(trace)
				if len(parsed.Metrics) != len(want) {
					t.Errorf("%d metrics on the driver line, BENCHMARK.json lists %d", len(parsed.Metrics), len(want))
				}
				for _, m := range want {
					v, ok := parsed.Metrics[m.Name]
					if !ok {
						t.Errorf("%s missing from the driver line", m.Name)
						continue
					}
					if v.Unit != m.Unit {
						t.Errorf("%s: unit %q, want %q", m.Name, v.Unit, m.Unit)
					}
					// within_limit_share is a timing outcome (the race
					// detector alone pushes a DSE op past its limit).
					if !trace && v.Value <= 0 && m.Name != "within_limit_share" {
						t.Errorf("%s = %g: an end-to-end metric is never 0", m.Name, v.Value)
					}
				}
				if trace {
					smokeTraced(t, w.Name, res)
				}
			})
		}
	}
}

// smokeTraced checks that each workload's traced pass produced the layers
// it exercises and left alone the ones it bypasses.
func smokeTraced(t *testing.T, workload string, res *runResult) {
	t.Helper()
	crypto := workload != "dse_explore"
	served := workload == "mnist_single" || workload == "tiny_cluster_open"
	for name, want := range map[string]bool{
		"ring.ntt_us":             crypto,
		"ckks.mul_relin_us":       crypto,
		"hecnn.evaluate_ms":       crypto,
		"hecnn.keyswitches":       crypto,
		"hecnn.modeled_ms":        crypto,
		"cache.hits":              crypto,
		"parallel.speedup":        crypto,
		"mlaas.requests.ok":       served,
		"mlaas.phase_ms.evaluate": served,
		"server.wait_ms":          served,
		"wire.kb_per_req":         served,
		"gateway.routed":          workload == "tiny_cluster_open",
		"dse.configs_evaluated":   !crypto,
		"accel.simulate_ms":       !crypto,
		"runtime.allocs_per_op":   true,
		"gen.latency_ms_p50":      true,
	} {
		if got := res.Metrics[name] != 0; got != want {
			t.Errorf("%s = %g on %s", name, res.Metrics[name], workload)
		}
	}
	if crypto {
		if _, ok := res.Metrics["hecnn.unattributed_share"]; !ok {
			t.Error("hecnn.unattributed_share not reported")
		}
		if got := res.Metrics["hecnn.encode_calls"]; got != 0 {
			t.Errorf("%g plaintext encodes during a steady-state evaluation, want 0", got)
		}
	}
	if len(res.Spans) == 0 {
		t.Error("traced pass kept no spans")
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	var out, errs bytes.Buffer
	if code := run([]string{"-workload", "no_such_workload"}, &out, &errs); code != 1 || out.Len() != 0 {
		t.Errorf("unknown workload: exit %d, stdout %q", code, out.String())
	}
	if code := run([]string{"-workload", "dse_explore", "-trace", "2"}, &out, &errs); code != 2 {
		t.Errorf("-trace 2: exit %d", code)
	}
}

package main

// Result files and the host descriptor. Every file a run writes carries
// the machine it was taken on, so -compare can refuse to set rows from
// different hosts side by side.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"fxhenn/internal/telemetry"
)

// runConfig is one invocation of one workload.
type runConfig struct {
	Seed    int64
	Seconds float64
	Trace   bool
	// Small swaps in the tiny parameter set and caps every loop at
	// MaxOps operations: the smoke tests' configuration.
	Small  bool
	MaxOps int
}

func (c runConfig) duration() time.Duration {
	return time.Duration(c.Seconds * float64(time.Second))
}

// hostInfo describes where a result was measured.
type hostInfo struct {
	CPUModel   string `json:"cpu_model"`
	Cores      int    `json:"cores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	Kernel     string `json:"kernel"`
	Commit     string `json:"commit"`
	StartTime  string `json:"start_time"`
}

func describeHost() hostInfo {
	h := hostInfo{
		CPUModel:   "unknown",
		Cores:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		OS:         runtime.GOOS + "/" + runtime.GOARCH,
		Kernel:     "unknown",
		Commit:     "unknown",
		StartTime:  time.Now().UTC().Format(time.RFC3339),
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	// The go tool stamps the commit when it builds inside a git checkout;
	// the driver's checkout is not one.
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

// differsFrom lists the descriptor fields that differ in a way that makes
// timings incomparable (commit and start time are expected to differ).
func (h hostInfo) differsFrom(o hostInfo) []string {
	var diff []string
	add := func(name, a, b string) {
		if a != b {
			diff = append(diff, fmt.Sprintf("%s: %q vs %q", name, a, b))
		}
	}
	add("cpu_model", h.CPUModel, o.CPUModel)
	add("cores", strconv.Itoa(h.Cores), strconv.Itoa(o.Cores))
	add("gomaxprocs", strconv.Itoa(h.GOMAXPROCS), strconv.Itoa(o.GOMAXPROCS))
	add("go_version", h.GoVersion, o.GoVersion)
	add("os", h.OS, o.OS)
	add("kernel", h.Kernel, o.Kernel)
	return diff
}

// span is one timed interval of the traced pass, kept in memory and
// written with the trace file at exit. Parent is the ID of the span that
// caused it (0 = root); spans of one request share Request.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent,omitempty"`
	Request int     `json:"request"`
	Name    string  `json:"name"`
	StartMS float64 `json:"start_ms"`
	DurMS   float64 `json:"dur_ms"`
}

// runResult is one workload run: what the driver's last line is cut from
// and what bench/out/<workload>[.trace].json holds.
type runResult struct {
	Host      hostInfo `json:"host"`
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Seconds   float64  `json:"seconds"`
	Trace     bool     `json:"trace"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	// Metrics holds every metric of the pass by name; Samples the number
	// of raw samples behind each timing percentile.
	Metrics  map[string]float64 `json:"metrics"`
	Samples  map[string]int     `json:"samples,omitempty"`
	Failures []string           `json:"failures,omitempty"`
	Spans    []span             `json:"spans,omitempty"`
	// ServerTraces are a few of the span trees the servers' own flight
	// recorders kept during the traced pass (queue, decode, validate,
	// evaluate with its layers, encode): the inside view of the requests
	// the conn wrapper timed from outside.
	ServerTraces []telemetry.RecordedTrace `json:"server_traces,omitempty"`
}

// maxServerTraces bounds what a trace file keeps of a flight recorder.
const maxServerTraces = 8

func (r *runResult) keepServerTraces(f *telemetry.FlightRecorder) {
	traces := f.Traces()
	if len(traces) > maxServerTraces {
		traces = traces[:maxServerTraces]
	}
	r.ServerTraces = append(r.ServerTraces, traces...)
}

func newResult(name string, cfg runConfig) *runResult {
	return &runResult{
		Workload: name,
		Seed:     cfg.Seed,
		Seconds:  cfg.Seconds,
		Trace:    cfg.Trace,
		Correct:  true,
		Metrics:  map[string]float64{},
		Samples:  map[string]int{},
	}
}

// fail records an incorrect outcome; the run exits non-zero.
func (r *runResult) fail(format string, args ...any) {
	r.Correct = false
	if len(r.Failures) < 20 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// countPhase folds a phase's operations into attempted/failed and keeps
// the first few failure reasons.
func (r *runResult) countPhase(name string, p phase) {
	r.Attempted += len(p.Samples)
	for _, s := range p.Samples {
		if s.Err != nil {
			r.Failed++
			r.fail("%s op %d: %v", name, s.Index, s.Err)
		}
	}
}

// addSpan appends a span and returns its ID.
func (r *runResult) addSpan(parent, request int, name string, startMS, durMS float64) int {
	id := len(r.Spans) + 1
	r.Spans = append(r.Spans, span{ID: id, Parent: parent, Request: request, Name: name, StartMS: startMS, DurMS: durMS})
	return id
}

// driverLine is the last line of standard output the driver parses.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// specFor is the metric list a pass must report.
func specFor(trace bool) []metricSpec {
	if trace {
		return perLayer
	}
	return endToEnd
}

// writeDriverLine prints exactly the metrics BENCHMARK.json lists for the
// pass. A listed metric the run did not produce, or produced as NaN/Inf,
// is an error: the driver would refuse the line anyway.
func (r *runResult) writeDriverLine(w io.Writer) error {
	line := driverLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]driverValue{}}
	for _, m := range specFor(r.Trace) {
		v, ok := r.Metrics[m.Name]
		if !ok {
			if !r.Trace {
				return fmt.Errorf("workload %s did not report %s", r.Workload, m.Name)
			}
			v = 0 // a per-layer metric of a layer this workload bypasses
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("workload %s reported %s = %v", r.Workload, m.Name, v)
		}
		line.Metrics[m.Name] = driverValue{Value: v, Unit: m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// save writes the result under dir as <workload>.json or
// <workload>.trace.json.
func (r *runResult) save(dir string) error {
	name := r.Workload + ".json"
	if r.Trace {
		name = r.Workload + ".trace.json"
	}
	return writeJSON(filepath.Join(dir, name), r)
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// peakRSSMB is the process's VmHWM: one process runs one workload, so it
// is that workload's high-water mark and nobody else's garbage.
func peakRSSMB() float64 { return procStatusMB("VmHWM:") }

// residentMB is the process's current VmRSS.
func residentMB() float64 { return procStatusMB("VmRSS:") }

func procStatusMB(field string) float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field); ok {
			if f := strings.Fields(rest); len(f) >= 1 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

package dse

// Exploration telemetry: an optional package-level registry that the
// explorers report into — candidate/feasible counters, exploration wall
// time, and candidate throughput, all labeled by exploration phase
// ("explore", "budget"). Installed with SetMetrics; with no registry
// installed the explorers pay a single atomic load.

import (
	"sync/atomic"
	"time"

	"fxhenn/internal/telemetry"
)

// Metric families exported by the explorers.
const (
	MetricCandidates   = "dse_candidates_explored_total" // counter{phase}
	MetricFeasible     = "dse_candidates_feasible_total" // counter{phase}
	MetricExplorations = "dse_explorations_total"        // counter{phase}
	MetricExploreSecs  = "dse_explore_seconds"           // histogram{phase}
	MetricThroughput   = "dse_candidates_per_second"     // gauge{phase}
)

var metricsReg atomic.Pointer[telemetry.Registry]

// SetMetrics installs (or, with nil, removes) the registry receiving
// exploration telemetry. Safe to call concurrently with explorations;
// an in-flight exploration keeps the registry it started with.
func SetMetrics(reg *telemetry.Registry) {
	metricsReg.Store(reg)
}

// exploreObs times one exploration phase. The nil observer (telemetry
// disabled) makes every method a no-op.
type exploreObs struct {
	phase string
	reg   *telemetry.Registry
	start time.Time
}

func beginExplore(phase string) *exploreObs {
	reg := metricsReg.Load()
	if reg == nil {
		return nil
	}
	return &exploreObs{phase: phase, reg: reg, start: time.Now()}
}

// done records the finished exploration: explored/feasible candidate
// counts, wall time, and the resulting candidate throughput.
func (o *exploreObs) done(explored, feasible int) {
	if o == nil {
		return
	}
	lbl := telemetry.L("phase", o.phase)
	o.reg.Counter(MetricCandidates, "design points evaluated", lbl).Add(int64(explored))
	o.reg.Counter(MetricFeasible, "design points meeting the DSP constraint", lbl).Add(int64(feasible))
	o.reg.Counter(MetricExplorations, "completed explorations", lbl).Inc()
	secs := time.Since(o.start).Seconds()
	o.reg.Histogram(MetricExploreSecs, "exploration wall time", nil, lbl).Observe(secs)
	if secs > 0 {
		o.reg.Gauge(MetricThroughput, "candidate throughput of the last exploration", lbl).
			Set(float64(explored) / secs)
	}
}

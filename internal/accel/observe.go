package accel

// Simulator telemetry: per-module (OP1–OP5) accounting of the schedule
// simulation — modeled busy cycles against the host wall-clock the
// simulation took — and its export into a telemetry registry. This is
// the "modeled" side of the measured-vs-modeled table that
// `cmd/artifact -measured` prints against live hecnn layer telemetry.

import (
	"time"

	"fxhenn/internal/hemodel"
	"fxhenn/internal/profile"
	"fxhenn/internal/telemetry"
)

// Metric families exported by Record.
const (
	MetricSimJobs       = "accel_sim_jobs_total"        // counter{op}
	MetricSimBusyCycles = "accel_sim_busy_cycles_total" // counter{op}
	MetricSimMakespan   = "accel_sim_makespan_cycles"   // gauge
	MetricSimHost       = "accel_sim_host_seconds"      // histogram
)

// SimStats is one simulation's per-module accounting: how many pipeline
// jobs each HE operation module class executed and how many modeled
// cycles they kept their module busy, plus the total modeled makespan
// and the host wall-clock the event-driven simulation itself consumed.
type SimStats struct {
	Jobs       [profile.NumOpClasses]int
	BusyCycles [profile.NumOpClasses]int64
	Makespan   int64 // modeled cycles, layers summed sequentially
	HostWall   time.Duration
}

// SimulateStats runs the schedule simulation over every layer (as
// SimulateCycles) while accounting per-module work and timing the
// simulation itself.
func SimulateStats(d *Design, streams int) SimStats {
	var st SimStats
	start := time.Now()
	for i := range d.Profile.Layers {
		st.Makespan += simulateLayer(d.Solution.Config, &d.Profile.Layers[i], d.Geometry, streams, &st)
	}
	st.HostWall = time.Since(start)
	return st
}

// ModeledSeconds converts the makespan to wall time at the given clock.
func (st SimStats) ModeledSeconds(clockHz float64) float64 {
	return hemodel.Seconds(st.Makespan, clockHz)
}

// Record exports the stats into reg: per-op job and busy-cycle counters,
// the makespan gauge, and the host-wall histogram. A nil registry is a
// no-op.
func (st SimStats) Record(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	for op := profile.OpClass(0); op < profile.NumOpClasses; op++ {
		lbl := telemetry.L("op", op.String())
		reg.Counter(MetricSimJobs, "simulated pipeline jobs per HE module class", lbl).
			Add(int64(st.Jobs[op]))
		reg.Counter(MetricSimBusyCycles, "modeled busy cycles per HE module class", lbl).
			Add(st.BusyCycles[op])
	}
	reg.Gauge(MetricSimMakespan, "modeled makespan of the last simulation, cycles").
		Set(float64(st.Makespan))
	reg.Histogram(MetricSimHost, "host wall-clock per simulation run", nil).
		Observe(st.HostWall.Seconds())
}

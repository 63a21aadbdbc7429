package dse

import (
	"testing"

	"fxhenn/internal/fpga"
	"fxhenn/internal/profile"
	"fxhenn/internal/telemetry"
)

// TestExploreTelemetry: with a registry installed, every explorer phase
// reports candidate counts that match its Result, and removing the
// registry stops reporting.
func TestExploreTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	SetMetrics(reg)
	defer SetMetrics(nil)

	p := profile.PaperMNIST()
	dev := fpga.ACU9EG

	seq, err := Explore(p, dev)
	if err != nil {
		t.Fatal(err)
	}
	bud := ExploreBRAMBudget(p, dev, 800)

	snap := reg.Snapshot()
	for _, tc := range []struct {
		phase string
		res   *Result
	}{{"explore", seq}, {"budget", bud}} {
		lbl := telemetry.L("phase", tc.phase)
		cand := snap.Family(MetricCandidates).Metric(lbl)
		if cand == nil || int(cand.Value) != tc.res.Explored {
			t.Fatalf("%s: candidates metric %+v != explored %d", tc.phase, cand, tc.res.Explored)
		}
		feas := snap.Family(MetricFeasible).Metric(lbl)
		if feas == nil || int(feas.Value) != tc.res.Feasible {
			t.Fatalf("%s: feasible metric %+v != %d", tc.phase, feas, tc.res.Feasible)
		}
		runs := snap.Family(MetricExplorations).Metric(lbl)
		if runs == nil || runs.Value != 1 {
			t.Fatalf("%s: explorations metric %+v, want 1", tc.phase, runs)
		}
		secs := snap.Family(MetricExploreSecs).Metric(lbl)
		if secs == nil || secs.Count != 1 {
			t.Fatalf("%s: explore-seconds histogram %+v, want one observation", tc.phase, secs)
		}
	}

	// With the registry removed the counters stay frozen.
	SetMetrics(nil)
	if _, err := Explore(p, dev); err != nil {
		t.Fatal(err)
	}
	after := reg.Snapshot().Family(MetricCandidates).Metric(telemetry.L("phase", "explore"))
	if int(after.Value) != seq.Explored {
		t.Fatalf("explore candidates moved to %v after SetMetrics(nil)", after.Value)
	}
}

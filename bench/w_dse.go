package main

// dse_explore: the paper's own contribution and the benchmark's control.
// One operation runs the design-space exploration, generates the
// accelerator design and simulates its schedule for both paper networks
// on both modeled boards. It touches none of ckks, hecnn or mlaas, so a
// crypto or serving optimisation predicts no change here — and a change
// that does move it touched something it did not claim.

import (
	"fmt"
	"math/rand"
	"time"

	"fxhenn/internal/accel"
	"fxhenn/internal/dse"
	"fxhenn/internal/fpga"
	"fxhenn/internal/profile"
	"fxhenn/internal/telemetry"
)

// dseCase is one (network, board) pair with the values EXPERIMENTS.md
// commits for it: Table VII's modeled latency as printed there, and for
// the Fig. 9 pair the size of the Pareto frontier.
type dseCase struct {
	net        string // "mnist" or "cifar10"
	profile    func() *profile.Network
	dev        fpga.Device
	seconds    string // as EXPERIMENTS.md prints it
	secondsFmt string
	pareto     int // 0 = not committed for this pair
}

var dseCases = []dseCase{
	{"mnist", profile.PaperMNIST, fpga.ACU9EG, "0.162", "%.3f", 9},
	{"mnist", profile.PaperMNIST, fpga.ACU15EG, "0.096", "%.3f", 0},
	{"cifar10", profile.PaperCIFAR10, fpga.ACU9EG, "178.4", "%.1f", 0},
	{"cifar10", profile.PaperCIFAR10, fpga.ACU15EG, "107.8", "%.1f", 0},
}

const dseWarmups = 20

// dseTimes accumulates the per-call wall times of the traced pass.
type dseTimes struct {
	explore  map[string][]float64 // by network, ms
	generate []float64
	simulate []float64
	pareto   float64
	modeled  map[string]float64 // ACU15EG modeled latency by network, ms
}

// dseOp runs every case in order and checks each against its committed
// values. times is nil on the untraced pass.
func dseOp(order []int, times *dseTimes) (float64, error) {
	for _, ci := range order {
		c := dseCases[ci]
		p := c.profile()

		start := time.Now()
		res, err := dse.Explore(p, c.dev)
		exploreMS := ms(time.Since(start))
		if err != nil {
			return 0, fmt.Errorf("explore %s on %s: %w", c.net, c.dev.Name, err)
		}
		start = time.Now()
		design, err := accel.Generate(p, c.dev)
		generateMS := ms(time.Since(start))
		if err != nil {
			return 0, fmt.Errorf("generate %s on %s: %w", c.net, c.dev.Name, err)
		}
		start = time.Now()
		cycles := accel.SimulateCycles(design, 1)
		simulateMS := ms(time.Since(start))

		if got := fmt.Sprintf(c.secondsFmt, design.LatencySeconds()); got != c.seconds {
			return 0, fmt.Errorf("%s on %s: modeled latency %s s, EXPERIMENTS.md commits %s s", c.net, c.dev.Name, got, c.seconds)
		}
		if res.Best == nil || res.Best.Cycles != design.Solution.Cycles {
			return 0, fmt.Errorf("%s on %s: exploration and generated design disagree on the best point", c.net, c.dev.Name)
		}
		if cycles <= 0 {
			return 0, fmt.Errorf("%s on %s: schedule simulation returned %d cycles", c.net, c.dev.Name, cycles)
		}
		frontier := len(dse.ParetoFrontier(res.All))
		if c.pareto != 0 && frontier != c.pareto {
			return 0, fmt.Errorf("%s on %s: Pareto frontier has %d points, EXPERIMENTS.md commits %d", c.net, c.dev.Name, frontier, c.pareto)
		}

		if times != nil {
			times.explore[c.net] = append(times.explore[c.net], exploreMS)
			times.generate = append(times.generate, generateMS)
			times.simulate = append(times.simulate, simulateMS)
			if c.pareto != 0 {
				times.pareto = float64(frontier)
			}
			if c.dev.Name == fpga.ACU15EG.Name {
				times.modeled[c.net] = 1000 * design.LatencySeconds()
			}
		}
	}
	return 0, nil // every case matched its committed value exactly
}

func runDSEExplore(w workloadSpec, cfg runConfig) (*runResult, error) {
	r := newResult(w.Name, cfg)

	// The models take no random input; the seed orders the four cases.
	order := rand.New(rand.NewSource(cfg.Seed)).Perm(len(dseCases))
	var (
		times *dseTimes
		reg   *telemetry.Registry
	)
	if cfg.Trace {
		times = &dseTimes{explore: map[string][]float64{}, modeled: map[string]float64{}}
		reg = telemetry.NewRegistry()
		dse.SetMetrics(reg)
		defer dse.SetMetrics(nil)
	}
	warmups := dseWarmups
	if cfg.Small {
		warmups = 1
	}
	_, setup, err := repeatSetup(cfg.Trace || cfg.Small, func() (struct{}, error) {
		for i := 0; i < warmups; i++ {
			if _, err := dseOp(order, nil); err != nil {
				return struct{}{}, err
			}
		}
		return struct{}{}, nil
	}, func(struct{}) {})
	if err != nil {
		return nil, err
	}
	r.Metrics["setup_s"] = setup

	before := reg.Snapshot() // a nil registry snapshots empty
	m := startMeter(cfg.Trace)
	ph := runClosed(wallClock, 1, cfg.duration(), cfg.MaxOps, func(_, _ int) (float64, error) {
		return dseOp(order, times)
	})
	m.finish(r, len(ph.Samples))
	r.countPhase("closed", ph)
	r.reportLoad(w, ph, 1, 1, ph.maxErr())

	if cfg.Trace && len(ph.Samples) > 0 {
		r.Metrics["dse.explore_ms.mnist"] = median(times.explore["mnist"])
		r.Metrics["dse.explore_ms.cifar10"] = median(times.explore["cifar10"])
		r.Metrics["accel.generate_ms"] = median(times.generate)
		r.Metrics["accel.simulate_ms"] = median(times.simulate)
		r.Metrics["dse.pareto_size"] = times.pareto
		r.Metrics["accel.modeled_latency_ms.mnist"] = times.modeled["mnist"]
		r.Metrics["accel.modeled_latency_ms.cifar10"] = times.modeled["cifar10"]
		// From the dse package's own counters: design points per exploration.
		after := reg.Snapshot()
		if n := familySum(after, dse.MetricExplorations) - familySum(before, dse.MetricExplorations); n > 0 {
			r.Metrics["dse.configs_evaluated"] = (familySum(after, dse.MetricCandidates) - familySum(before, dse.MetricCandidates)) / n
		}
		for i, s := range ph.Samples {
			if i >= maxRequestSpans {
				break
			}
			r.addSpan(0, i+1, "dse.op", ms(s.Start), ms(s.latency()))
		}
	}
	return r, nil
}

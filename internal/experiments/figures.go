package experiments

import (
	"fxhenn/internal/accel"
	"fxhenn/internal/dse"
	"fxhenn/internal/fpga"
	"fxhenn/internal/hemodel"
	"fxhenn/internal/profile"
	"fxhenn/internal/report"
)

// BuildFig7 builds the per-layer BRAM usage and latency of the baseline and
// FxHENN designs for FxHENN-MNIST on the ACU9EG.
func (e *Env) BuildFig7() *report.Table {
	dev := fpga.ACU9EG
	bl := dse.Baseline(e.MNIST, dev)
	d, err := accel.Generate(e.MNIST, dev)
	if err != nil {
		panic(err)
	}
	fx := d.PerLayer()

	t := &report.Table{
		Title:   "Fig. 7: per-layer BRAM usage and latency, baseline vs FxHENN (FxHENN-MNIST, ACU9EG)",
		Headers: []string{"layer", "baseline BRAM%", "FxHENN BRAM%", "baseline s", "FxHENN s", "layer speedup"},
	}
	for i, la := range bl.PerLayer {
		grant := la.BRAMDemand
		if grant > la.BRAMBudget {
			grant = la.BRAMBudget
		}
		blPct := float64(grant) / float64(dev.BRAM36K) * 100
		blSec := hemodel.Seconds(la.Cycles, dev.ClockHz)
		t.AddRow(la.Layer,
			report.Pct(blPct), report.Pct(fx[i].BRAMPct),
			report.F(blSec), report.F(fx[i].Seconds),
			report.F(blSec/fx[i].Seconds))
	}
	t.AddNote("FxHENN shares the full BRAM pool across layers (inter-layer reuse), so the")
	t.AddNote("bottleneck Fc1 layer gets most of the device instead of a fixed slice (paper: 6.63X on Fc1)")
	return t
}

// BuildFig8 builds the per-layer DSP usage of each HE operation, baseline vs
// FxHENN, showing module-level reuse.
func (e *Env) BuildFig8() *report.Table {
	dev := fpga.ACU9EG
	bl := dse.Baseline(e.MNIST, dev)
	d, err := accel.Generate(e.MNIST, dev)
	if err != nil {
		panic(err)
	}
	fx := d.PerLayer()

	t := &report.Table{
		Title:   "Fig. 8: per-layer DSP slices per HE operation (FxHENN-MNIST, ACU9EG)",
		Headers: []string{"layer", "design", "CCadd", "PCmult", "CCmult", "Rescale", "KeySwitch", "total"},
	}
	for i := range e.MNIST.Layers {
		layer := &e.MNIST.Layers[i]
		blc := bl.PerLayer[i].Config
		var blCells [profile.NumOpClasses]int
		for op := profile.OpClass(0); op < profile.NumOpClasses; op++ {
			if layer.UsesOp(op) {
				blCells[op] = hemodel.OpDSPScaled(op, blc.NcNTT, blc.Modules[op].Intra, blc.Modules[op].Inter)
			}
		}
		t.AddRow(layer.Name, "baseline",
			report.I(blCells[0]), report.I(blCells[1]), report.I(blCells[2]),
			report.I(blCells[3]), report.I(blCells[4]), report.I(bl.PerLayer[i].DSP))
		r := fx[i]
		t.AddRow("", "FxHENN",
			report.I(r.DSPPerOp[0]), report.I(r.DSPPerOp[1]), report.I(r.DSPPerOp[2]),
			report.I(r.DSPPerOp[3]), report.I(r.DSPPerOp[4]), report.I(r.DSP))
	}
	t.AddNote("FxHENN rows repeat shared module instances across layers (reuse);")
	t.AddNote("baseline rows are per-layer private instances")
	return t
}

// BuildFig9 builds the BRAM-budget sweep: best achievable latency and number of
// feasible design points per budget, plus the Pareto frontier, and where
// the generated ACU9EG/ACU15EG designs land.
func (e *Env) BuildFig9() *report.Table {
	dev := fpga.ACU9EG
	t := &report.Table{
		Title:   "Fig. 9: DSE design space for FxHENN-MNIST vs BRAM budget",
		Headers: []string{"BRAM budget", "feasible designs", "best latency s"},
	}
	for budget := 350; budget <= 1500; budget += 50 {
		res := dse.ExploreBRAMBudget(e.MNIST, dev, budget)
		best := report.Dash
		if res.Best != nil {
			best = report.F(res.Best.Seconds)
		}
		t.AddRow(report.I(budget), report.I(res.Feasible), best)
	}
	full, err := dse.Explore(e.MNIST, dev)
	if err != nil {
		panic(err)
	}
	front := dse.ParetoFrontier(full.All)
	t.AddNote("Pareto frontier (%d points):", len(front))
	for _, s := range front {
		if s.BRAM < 350 || s.BRAM > 1500 {
			continue
		}
		t.AddNote("  BRAM=%d -> %.3f s (nc=%d, KS intra=%d)", s.BRAM, s.Seconds,
			s.Config.NcNTT, s.Config.Modules[profile.KeySwitch].Intra)
	}
	d9, _ := accel.Generate(e.MNIST, fpga.ACU9EG)
	d15, _ := accel.Generate(e.MNIST, fpga.ACU15EG)
	t.AddNote("generated ACU9EG design: BRAM=%d, %.3f s; ACU15EG: BRAM=%d, %.3f s",
		d9.Solution.BRAM, d9.Solution.Seconds, d15.Solution.BRAM, d15.Solution.Seconds)
	return t
}

// BuildFig10 builds the optimal intra-/inter-parallelism of every HE operation
// module for both networks on both devices.
func (e *Env) BuildFig10() *report.Table {
	t := &report.Table{
		Title:   "Fig. 10: optimal module parallelism (intra/inter) per network and device",
		Headers: []string{"network", "device", "nc_NTT", "CCadd", "PCmult", "CCmult", "Rescale", "KeySwitch"},
	}
	for _, p := range []*profile.Network{e.MNIST, e.CIFAR} {
		for _, dev := range []fpga.Device{fpga.ACU9EG, fpga.ACU15EG} {
			res, err := dse.Explore(p, dev)
			if err != nil {
				panic(err)
			}
			c := res.Best.Config
			cell := func(op profile.OpClass) string {
				m := c.Modules[op]
				return report.I(m.Intra) + "/" + report.I(m.Inter)
			}
			t.AddRow(p.Name, dev.Name, report.I(c.NcNTT),
				cell(profile.CCadd), cell(profile.PCmult), cell(profile.CCmult),
				cell(profile.Rescale), cell(profile.KeySwitch))
		}
	}
	t.AddNote("paper shape: CCmult parallelism stays 1; CIFAR10 KeySwitch minimal on ACU9EG (N=2^14 doubles buffers)")
	return t
}

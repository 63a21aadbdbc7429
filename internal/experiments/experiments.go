// Package experiments regenerates every table and figure of the paper's
// evaluation from the reproduced system, building paper-reported values
// side by side with modeled/measured ones. Catalog is the only way to
// reach a table; cmd/artifact renders it (see DESIGN.md §5 for the
// experiment index).
package experiments

import (
	"fmt"

	"fxhenn/internal/cnn"
	"fxhenn/internal/dse"
	"fxhenn/internal/fpga"
	"fxhenn/internal/hecnn"
	"fxhenn/internal/hemodel"
	"fxhenn/internal/profile"
	"fxhenn/internal/refdata"
	"fxhenn/internal/report"
)

// Env caches the workload profiles used across experiments.
type Env struct {
	// Paper-exact profiles (drive the table reproductions).
	MNIST *profile.Network
	CIFAR *profile.Network
	// Profiles derived from our functional packed networks.
	OursMNIST *profile.Network
	OursCIFAR *profile.Network
}

// NewEnv builds the environment (dry-runs the functional networks).
func NewEnv() *Env {
	mn := hecnn.Compile(cnn.NewMNISTNet(), 4096)
	cf := hecnn.Compile(cnn.NewCIFAR10Net(), 8192)
	return &Env{
		MNIST:     profile.PaperMNIST(),
		CIFAR:     profile.PaperCIFAR10(),
		OursMNIST: profile.FromRecorder("ours-MNIST", mn.Count(7), 13, 7, 30, 128),
		OursCIFAR: profile.FromRecorder("ours-CIFAR10", cf.Count(7), 14, 7, 36, 192),
	}
}

func secs(cycles int64) float64 { return hemodel.Seconds(cycles, fpga.ACU9EG.ClockHz) }

// BuildTableI builds the HE operation module microbenchmarks (DSP/BRAM/latency
// vs nc_NTT) against the paper's measurements.
func (e *Env) BuildTableI() *report.Table {
	g := hemodel.MNISTGeometry
	t := &report.Table{
		Title:   "Table I: HE operation modules on ACU9EG (paper vs model)",
		Headers: []string{"op", "nc_NTT", "DSP% paper", "DSP% model", "BRAM% paper", "BRAM% model", "Lat ms paper", "Lat ms model"},
	}
	classOf := map[string]profile.OpClass{
		"CCadd": profile.CCadd, "PCmult": profile.PCmult, "CCmult": profile.CCmult,
		"Rescale": profile.Rescale, "KeySwitch": profile.KeySwitch,
	}
	for _, row := range refdata.PaperTableI {
		op := classOf[row.Op]
		nc := row.NcNTT
		effNC := nc
		if effNC == 0 {
			effNC = 2
		}
		dspPct := float64(hemodel.OpDSP(op, effNC)) / float64(fpga.ACU9EG.DSP) * 100
		bramPct := float64(hemodel.OpBRAM(op, g, effNC)) / float64(fpga.ACU9EG.BRAM36K) * 100
		latMs := hemodel.Seconds(int64(hemodel.OpLatencyCycles(op, g, g.L, effNC)), fpga.ACU9EG.ClockHz) * 1e3
		ncCell := report.Dash
		if nc != 0 {
			ncCell = report.I(nc)
		}
		t.AddRow(row.Op, ncCell,
			report.Pct(row.DSPPct), report.Pct(dspPct),
			report.Pct(row.BRAMPct), report.Pct(bramPct),
			report.F(row.LatMs), report.F(latMs))
	}
	t.AddNote("model calibrated at 230 MHz; N=8192, L=7, 30-bit words")
	return t
}

// BuildTableII builds the preliminary (per-layer dedicated, nc=2) LoLa-MNIST
// design: the §III resource-imbalance observation.
func (e *Env) BuildTableII() *report.Table {
	g := hemodel.MNISTGeometry
	c := hemodel.DefaultConfig()
	t := &report.Table{
		Title:   "Table II: preliminary per-layer accelerator for LoLa-MNIST on ACU9EG (nc_NTT=2)",
		Headers: []string{"layer", "HE ops", "DSP% paper", "DSP% model", "BRAM% paper", "BRAM% model"},
	}
	var sumDSP, sumBRAM float64
	var paperSumDSP, paperSumBRAM float64
	for i, row := range refdata.PaperTableII {
		layer := &e.MNIST.Layers[i]
		dspPct := float64(c.LayerDSP(layer)) / float64(fpga.ACU9EG.DSP) * 100
		bramPct := float64(c.LayerBRAM(layer, g)) / float64(fpga.ACU9EG.BRAM36K) * 100
		sumDSP += dspPct
		sumBRAM += bramPct
		paperSumDSP += row.DSPPct
		paperSumBRAM += row.BRAMPct
		t.AddRow(row.Layer, layer.OpModules(),
			report.Pct(row.DSPPct), report.Pct(dspPct),
			report.Pct(row.BRAMPct), report.Pct(bramPct))
	}
	t.AddRow("Sum", "",
		report.Pct(paperSumDSP), report.Pct(sumDSP),
		report.Pct(paperSumBRAM), report.Pct(sumBRAM))
	t.AddNote("observation preserved: BRAM over-subscribed (>100%%), DSP under-utilized")
	return t
}

// BuildTableIII builds the BRAM-budget impact on layer latency.
func (e *Env) BuildTableIII() *report.Table {
	g := hemodel.MNISTGeometry
	p := refdata.PaperTableIII
	t := &report.Table{
		Title:   "Table III: impact of BRAM usage on HE-CNN layer latency",
		Headers: []string{"layer", "BRAM blocks", "Lat s paper", "Lat s model"},
	}
	// Cnv1 measured at its paper operating point (intra=4 per Table V);
	// Fc1 at intra=3.
	cnv1 := e.MNIST.Layer("Cnv1")
	fc1 := e.MNIST.Layer("Fc1")
	cCnv := hemodel.DefaultConfig()
	for i := range cCnv.Modules {
		cCnv.Modules[i].Intra = 4
	}
	cFc := hemodel.DefaultConfig()
	for i := range cFc.Modules {
		cFc.Modules[i].Intra = 3
	}
	cnvDemand := cCnv.LayerBRAM(cnv1, g)
	fcDemand := cFc.LayerBRAM(fc1, g)
	t.AddRow("Cnv1 (on-chip)", fmt.Sprintf("%d (paper %d)", cnvDemand, p.Cnv1OnchipBlocks),
		report.F(p.Cnv1OnchipSec), report.F(secs(cCnv.LayerLatencyWithBudget(cnv1, g, cnvDemand))))
	t.AddRow("Cnv1 (off-chip)", "0",
		report.F(p.Cnv1OffchipSec), report.F(secs(cCnv.LayerLatencyWithBudget(cnv1, g, 0))))
	t.AddRow("Fc1 (on-chip)", fmt.Sprintf("%d (paper %d)", fcDemand, p.Fc1OnchipBlocks),
		report.F(p.Fc1OnchipSec), report.F(secs(cFc.LayerLatencyWithBudget(fc1, g, fcDemand))))
	t.AddRow("Fc1 (off-chip)", "0",
		report.F(p.Fc1OffchipSec), report.F(secs(cFc.LayerLatencyWithBudget(fc1, g, 0))))
	return t
}

// BuildTableIV builds the CNN-vs-HE-CNN MAC comparison.
func (e *Env) BuildTableIV() *report.Table {
	g := hemodel.MNISTGeometry
	net := cnn.NewMNISTNet()
	conv := net.Layers[0].(*cnn.Conv2D)
	fc1 := net.Layers[2].(*cnn.Dense)
	p := refdata.PaperTableIV

	heCnv := hemodel.LayerHEMACs(e.MNIST.Layer("Cnv1"), g)
	heFc := hemodel.LayerHEMACs(e.MNIST.Layer("Fc1"), g)

	t := &report.Table{
		Title:   "Table IV: MACs of CNN vs HE-CNN inference (FxHENN-MNIST)",
		Headers: []string{"layer", "CNN MACs", "HOPs", "HE-MACs paper", "HE-MACs model", "HE/CNN blow-up"},
	}
	t.AddRow("Cnv1", report.I(conv.MACs()), report.I(p.Cnv1HOPs),
		report.F(p.Cnv1HEMACs), report.I(int(heCnv)),
		report.F(float64(heCnv)/float64(conv.MACs())))
	t.AddRow("Fc1", report.I(fc1.MACs()), report.I(p.Fc1HOPs),
		report.F(p.Fc1HEMACs), report.I(int(heFc)),
		report.F(float64(heFc)/float64(fc1.MACs())))
	t.AddNote("CNN MAC ratio Fc1/Cnv1 = %.2f (paper: 4X); HE-MAC ratio = %.2f (paper: 12.95X)",
		float64(fc1.MACs())/float64(conv.MACs()), float64(heFc)/float64(heCnv))
	return t
}

// BuildTableV builds the two motivating DSE configurations.
func (e *Env) BuildTableV() *report.Table {
	g := hemodel.MNISTGeometry
	cnv1 := e.MNIST.Layer("Cnv1")
	fc1 := e.MNIST.Layer("Fc1")
	t := &report.Table{
		Title:   "Table V: DSE for Cnv1 and Fc1 of LoLa-MNIST on ACU9EG",
		Headers: []string{"cfg", "Cnv1 intra", "Cnv1 s (paper)", "Cnv1 s (model)", "Fc1 intra", "Fc1 s (paper)", "Fc1 s (model)", "Sum s (paper)", "Sum s (model)"},
	}
	var sums []float64
	for _, row := range refdata.PaperTableV {
		cc := hemodel.DefaultConfig()
		for i := range cc.Modules {
			cc.Modules[i].Intra = row.Cnv1Intra
		}
		cf := hemodel.DefaultConfig()
		for i := range cf.Modules {
			cf.Modules[i].Intra = row.Fc1Intra
		}
		cnvSec := secs(cc.LayerLatencyCycles(cnv1, g))
		fcSec := secs(cf.LayerLatencyCycles(fc1, g))
		sums = append(sums, cnvSec+fcSec)
		t.AddRow(row.Config,
			report.I(row.Cnv1Intra), report.F(row.Cnv1Sec), report.F(cnvSec),
			report.I(row.Fc1Intra), report.F(row.Fc1Sec), report.F(fcSec),
			report.F(row.Sum), report.F(cnvSec+fcSec))
	}
	t.AddNote("speedup A over B: paper 2.07X, model %.2fX", sums[1]/sums[0])
	return t
}

// BuildTableVI builds the benchmark network information.
func (e *Env) BuildTableVI() *report.Table {
	t := &report.Table{
		Title:   "Table VI: benchmark HE-CNN networks",
		Headers: []string{"network", "layers", "HOPs 10^3 paper", "HOPs 10^3 ours", "KS ours", "Mod.Size MB paper", "Mod.Size MB ours"},
	}
	ours := []*profile.Network{e.OursMNIST, e.OursCIFAR}
	for i, row := range refdata.PaperTableVI {
		o := ours[i]
		t.AddRow(row.Network, row.Layers,
			report.F(row.HOPsK), report.F(float64(o.TotalHOPs())/1e3),
			report.I(o.TotalKS()),
			report.F(row.ModSizeMB), report.F(float64(o.ModelSizeBytes())/1e6))
	}
	t.AddNote("accuracy (paper: 98.9%% / 74.1%%) is not reproducible without the trained LoLa models;")
	t.AddNote("our weights are synthetic — encrypted inference is instead verified exactly against plaintext inference")
	return t
}

// BuildTableVII builds the end-to-end comparison against published systems.
func (e *Env) BuildTableVII() *report.Table {
	t := &report.Table{
		Title:   "Table VII: HE-CNN inference on MNIST and CIFAR-10",
		Headers: []string{"system", "MNIST s", "CIFAR s", "platform", "TDP W", "scheme"},
	}
	fmtLat := func(v float64) string {
		if v == 0 {
			return report.Dash
		}
		return report.F(v)
	}
	for _, s := range refdata.TableVII {
		t.AddRow(s.Name, fmtLat(s.MNIST.LatencySeconds), fmtLat(s.CIFAR.LatencySeconds),
			s.Platform, report.F(s.TDPWatts), s.Scheme)
	}
	type ours struct {
		dev   fpga.Device
		mnist *dse.Solution
		cifar *dse.Solution
	}
	var rows []ours
	for _, dev := range []fpga.Device{fpga.ACU15EG, fpga.ACU9EG} {
		rm, err := dse.Explore(e.MNIST, dev)
		if err != nil {
			panic(err)
		}
		rc, err := dse.Explore(e.CIFAR, dev)
		if err != nil {
			panic(err)
		}
		rows = append(rows, ours{dev, rm.Best, rc.Best})
		t.AddRow("FxHENN (repro)", report.F(rm.Best.Seconds), report.F(rc.Best.Seconds),
			"ALINX "+dev.Name+" (model)", report.F(dev.TDPWatts), "CKKS")
		paper := refdata.PaperFxHENN[dev.Name]
		t.AddRow("FxHENN (paper)", report.F(paper.MNISTSeconds), report.F(paper.CIFARSeconds),
			"ALINX "+dev.Name, report.F(dev.TDPWatts), "CKKS")
	}
	var lola, afv refdata.System
	for _, s := range refdata.TableVII {
		if s.Name == "LoLa" {
			lola = s
		}
		if s.Name == "A*FV" {
			afv = s
		}
	}
	for _, r := range rows {
		t.AddNote("%s vs LoLa: MNIST %.2fX speedup, %.0fX energy eff.; CIFAR %.2fX speedup, %.0fX energy eff. (paper: up to 13.49X / 1187X)",
			r.dev.Name,
			lola.MNIST.LatencySeconds/r.mnist.Seconds,
			lola.MNIST.LatencySeconds*lola.TDPWatts/(r.mnist.Seconds*r.dev.TDPWatts),
			lola.CIFAR.LatencySeconds/r.cifar.Seconds,
			lola.CIFAR.LatencySeconds*lola.TDPWatts/(r.cifar.Seconds*r.dev.TDPWatts))
		t.AddNote("%s vs A*FV: MNIST %.2fX speedup, %.0fX energy eff. (paper ACU15EG: 27.37X / 3000X)",
			r.dev.Name,
			afv.MNIST.LatencySeconds/r.mnist.Seconds,
			afv.MNIST.LatencySeconds*afv.TDPWatts/(r.mnist.Seconds*r.dev.TDPWatts))
	}
	return t
}

// BuildTableVIII builds the single-convolution-layer comparison with FPL'21.
func (e *Env) BuildTableVIII() *report.Table {
	t := &report.Table{
		Title:   "Table VIII: convolutional layers vs FPL'21 (ResNet-50, N=2048, 54-bit q)",
		Headers: []string{"layer", "FPL'21 DSP", "FPL'21 ms", "FxHENN DSP", "ms paper", "ms model", "speedup paper", "speedup model"},
	}
	for _, row := range refdata.FPL21Conv {
		ours := hemodel.ConvCompareMs(row.FPLLatencyMs, row.FPLDSP, row.PaperFxHENNDSP)
		t.AddRow(row.Layer, report.I(row.FPLDSP), report.F(row.FPLLatencyMs),
			report.I(row.PaperFxHENNDSP), report.F(row.PaperFxHENNMs), report.F(ours),
			fmt.Sprintf("%.2fX", row.PaperSpeedup),
			fmt.Sprintf("%.2fX", row.FPLLatencyMs/ours))
	}
	t.AddNote("equal-work DSP-normalized comparison; fine-grained pipeline gain calibrated on conv1")
	return t
}

// BuildTableIX builds baseline vs FxHENN peak/aggregate utilization and latency.
func (e *Env) BuildTableIX() *report.Table {
	dev := fpga.ACU9EG
	g := hemodel.MNISTGeometry
	bl := dse.Baseline(e.MNIST, dev)
	opt, err := dse.Explore(e.MNIST, dev)
	if err != nil {
		panic(err)
	}
	c := opt.Best.Config

	var fxAggDSP int
	for i := range e.MNIST.Layers {
		fxAggDSP += c.LayerDSP(&e.MNIST.Layers[i])
	}
	fxAggBRAM := c.AggregateBRAM(e.MNIST, g)
	pDSP := func(v int) string { return report.Pct(float64(v) / float64(dev.DSP) * 100) }
	pBRAM := func(v int) string { return report.Pct(float64(v) / float64(dev.BRAM36K) * 100) }

	p := refdata.PaperTableIX
	t := &report.Table{
		Title:   "Table IX: baseline vs FxHENN on FxHENN-MNIST (ACU9EG)",
		Headers: []string{"design", "peak DSP", "peak BRAM", "agg DSP", "agg BRAM", "latency s"},
	}
	t.AddRow("Baseline (paper)", report.Pct(p.BaselinePeakDSP), report.Pct(p.BaselinePeakBRAM),
		report.Pct(p.BaselinePeakDSP), report.Pct(p.BaselinePeakBRAM), report.F(p.BaselineSeconds))
	t.AddRow("Baseline (repro)", pDSP(bl.DSP), pBRAM(bl.BRAM), pDSP(bl.DSP), pBRAM(bl.BRAM),
		report.F(bl.Seconds(dev)))
	t.AddRow("FxHENN (paper)", report.Pct(p.FxPeakDSP), report.Pct(p.FxPeakBRAM),
		report.Pct(p.FxAggDSP), report.Pct(p.FxAggBRAM), report.F(p.FxSeconds))
	t.AddRow("FxHENN (repro)", pDSP(opt.Best.DSP), pBRAM(opt.Best.BRAMOnChip),
		pDSP(fxAggDSP), pBRAM(fxAggBRAM), report.F(opt.Best.Seconds))
	t.AddNote("aggregate > peak for FxHENN = computation and storage reused across layers (§VII-C)")
	t.AddNote("baseline speedup: paper %.2fX, repro %.2fX",
		p.BaselineSeconds/p.FxSeconds, bl.Seconds(dev)/opt.Best.Seconds)
	return t
}

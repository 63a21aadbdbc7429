package experiments

import (
	"fxhenn/internal/dse"
	"fxhenn/internal/fpga"
	"fxhenn/internal/report"
)

// BuildAblations quantifies what each FxHENN mechanism buys on FxHENN-MNIST
// (ACU9EG): fine-grained pipelining (Fig. 2), inter-layer buffer reuse
// (§VI-A), module reuse with DSE-driven allocation (§V-C/VII-C) and the
// DRAM spill path. This extends the paper's Table IX with the design
// choices DESIGN.md calls out.
func (e *Env) BuildAblations() *report.Table {
	t := &report.Table{
		Title:   "Ablations: FxHENN mechanisms on FxHENN-MNIST (ACU9EG)",
		Headers: []string{"design", "latency s", "slowdown vs full"},
	}
	results, err := dse.Ablate(e.MNIST, fpga.ACU9EG)
	if err != nil {
		panic(err)
	}
	for _, r := range results {
		lat, slow := report.F(r.Seconds), report.F(r.SlowdownVsFull)+"X"
		if !r.Feasible {
			lat, slow = "infeasible", report.Dash
		}
		t.AddRow(r.Name, lat, slow)
	}
	t.AddNote("every removed mechanism costs latency; together they are the paper's contribution")
	return t
}

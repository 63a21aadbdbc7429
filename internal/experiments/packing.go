package experiments

import (
	"fxhenn/internal/cnn"
	"fxhenn/internal/dse"
	"fxhenn/internal/fpga"
	"fxhenn/internal/hecnn"
	"fxhenn/internal/profile"
	"fxhenn/internal/report"
)

// BuildPackingComparison contrasts the two data packing schemes of §II-B on
// FxHENN-MNIST hardware designs: LoLa-style single-image packing (low
// latency) versus CryptoNets-style batched packing (no rotations, one
// image per slot — high throughput). The paper quotes this trade through
// its related-work latencies; here both schemes run through the same DSE.
func (e *Env) BuildPackingComparison() *report.Table {
	dev := fpga.ACU9EG
	slots := 4096

	lola := e.OursMNIST
	bnet, err := hecnn.CompileBatched(cnn.NewMNISTNet(), slots)
	if err != nil {
		panic(err)
	}
	batched := profile.FromRecorder("MNIST-batched", bnet.Count(7), 13, 7, 30, 128)

	t := &report.Table{
		Title:   "Packing comparison: LoLa-style vs CryptoNets-style batched (FxHENN-MNIST, ACU9EG)",
		Headers: []string{"packing", "HOPs", "KS", "images/run", "latency s", "throughput img/s"},
	}
	type rowT struct {
		name   string
		p      *profile.Network
		images int
	}
	for _, row := range []rowT{
		{"LoLa-style (latency)", lola, 1},
		{"batched (throughput)", batched, slots},
	} {
		res, err := dse.Explore(row.p, dev)
		if err != nil {
			panic(err)
		}
		t.AddRow(row.name,
			report.I(row.p.TotalHOPs()), report.I(row.p.TotalKS()),
			report.I(row.images),
			report.F(res.Best.Seconds),
			report.F(float64(row.images)/res.Best.Seconds))
	}
	t.AddNote("the batched scheme eliminates rotations (KS from relinearization only) but")
	t.AddNote("pays per-batch latency — the CryptoNets-vs-LoLa trade of §II-B / Table VII")
	return t
}

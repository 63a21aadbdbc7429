package profile

import (
	"testing"

	"fxhenn/internal/ckks"
	"fxhenn/internal/cnn"
	"fxhenn/internal/hecnn"
)

// TestTracedMNISTReproducesPaperProfile is the telemetry golden test: a
// traced MNIST count (CountTraced — the same per-layer fold a live
// server's Tracer reports, minus the cryptography) must reproduce the per-layer
// op counts of the published profile within the documented reconstruction
// tolerance (EXPERIMENTS.md): layer structure, levels, KS classification
// and Cnv1's Listing-1 counts exactly; HOP/KS totals within 2×.
func TestTracedMNISTReproducesPaperProfile(t *testing.T) {
	net := hecnn.Compile(cnn.NewMNISTNet(), 4096)
	rec, stats := net.CountTraced(7)
	paper := PaperMNIST()

	if len(stats) != len(paper.Layers) {
		t.Fatalf("traced %d layers, paper has %d", len(stats), len(paper.Layers))
	}
	var hops, ks int
	for i, st := range stats {
		pl := &paper.Layers[i]
		if st.Layer != pl.Name {
			t.Fatalf("layer %d is %q, paper has %q", i, st.Layer, pl.Name)
		}
		if st.Level != pl.Level {
			t.Fatalf("%s: traced level %d, paper %d", st.Layer, st.Level, pl.Level)
		}
		if (st.KeySwitches > 0) != pl.KS {
			t.Fatalf("%s: KS classification %v, paper %v", st.Layer, st.KeySwitches > 0, pl.KS)
		}
		hops += st.HOPs
		ks += st.KeySwitches
	}

	// Cnv1 is pinned exactly by Listing 1: 25 PCmult, 25 Rescale,
	// 24 CCadd + 1 PCadd, no KeySwitch.
	cnv1 := stats[0]
	if cnv1.HOPs != 75 || cnv1.KeySwitches != 0 ||
		cnv1.Ops[ckks.OpPCmult] != 25 || cnv1.Ops[ckks.OpRescale] != 25 ||
		cnv1.Ops[ckks.OpCCadd] != 24 || cnv1.Ops[ckks.OpPCadd] != 1 {
		t.Fatalf("Cnv1 ops off Listing 1: %+v", cnv1)
	}

	// Totals within the documented 2× reconstruction tolerance.
	hr := float64(hops) / float64(paper.TotalHOPs())
	kr := float64(ks) / float64(paper.TotalKS())
	if hr > 2 || hr < 0.5 || kr > 2 || kr < 0.5 {
		t.Fatalf("traced totals outside tolerance: HOP ratio %.2f, KS ratio %.2f", hr, kr)
	}

	// And the traced stats agree exactly with the recorder they were
	// harvested from — telemetry invents nothing.
	if hops != rec.TotalHOPs() || ks != rec.TotalKeySwitches() {
		t.Fatalf("stats %d/%d != recorder %d/%d", hops, ks, rec.TotalHOPs(), rec.TotalKeySwitches())
	}
}

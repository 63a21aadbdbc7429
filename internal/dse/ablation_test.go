package dse

import (
	"testing"

	"fxhenn/internal/fpga"
	"fxhenn/internal/hemodel"
	"fxhenn/internal/profile"
)

// TestAblations: every removed mechanism must cost latency (slowdown ≥ 1)
// and the full design must come first.
func TestAblations(t *testing.T) {
	results, err := Ablate(profile.PaperMNIST(), fpga.ACU9EG)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 5 {
		t.Fatalf("expected 5 rows, got %d", len(results))
	}
	if results[0].Name != "full FxHENN" || results[0].SlowdownVsFull != 1 {
		t.Fatalf("first row must be the full design: %+v", results[0])
	}
	for _, r := range results[1:] {
		if !r.Feasible {
			continue
		}
		if r.SlowdownVsFull < 1 {
			t.Fatalf("%s: ablation FASTER than full design (%.3f)", r.Name, r.SlowdownVsFull)
		}
	}
	// Coarse-grained pipelining must hurt measurably (the Fig. 2
	// motivation): the unbalanced stages cost ≥15% even with generous
	// inter-parallelism.
	if results[1].SlowdownVsFull < 1.15 {
		t.Fatalf("coarse pipeline slowdown only %.2f", results[1].SlowdownVsFull)
	}
	// The no-reuse baseline is the worst compute organization.
	if results[3].SlowdownVsFull < 2 {
		t.Fatalf("baseline slowdown only %.2f", results[3].SlowdownVsFull)
	}
}

// TestCoarseVsFineModel: the fine-grained pipeline is never slower than the
// coarse one under identical configuration.
func TestCoarseVsFineModel(t *testing.T) {
	p := profile.PaperMNIST()
	g := hemodel.GeometryFor(p)
	for intra := 1; intra <= 4; intra++ {
		c := hemodel.DefaultConfig()
		for i := range c.Modules {
			c.Modules[i].Intra = intra
		}
		var fine int64
		for i := range p.Layers {
			fine += c.LayerLatencyCycles(&p.Layers[i], g)
		}
		if fine > c.CoarseNetworkLatencyCycles(p, g) {
			t.Fatalf("fine pipeline slower than coarse at intra=%d", intra)
		}
	}
}

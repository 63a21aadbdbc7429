package accel

import (
	"encoding/json"
	"strconv"
	"strings"
	"testing"

	"fxhenn/internal/dse"
	"fxhenn/internal/fpga"
	"fxhenn/internal/hemodel"
	"fxhenn/internal/profile"
)

func mnistDesign(t testing.TB) *Design {
	t.Helper()
	d, err := Generate(profile.PaperMNIST(), fpga.ACU9EG)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestGenerate(t *testing.T) {
	d := mnistDesign(t)
	if d.LatencySeconds() <= 0 || d.LatencySeconds() > 1 {
		t.Fatalf("latency %.3f s implausible", d.LatencySeconds())
	}
	if d.EnergyJoules() != d.LatencySeconds()*10 {
		t.Fatal("energy must be latency × 10W TDP")
	}
	if !strings.Contains(d.Summary(), "FxHENN-MNIST") {
		t.Fatal("summary missing network name")
	}
}

func TestPerLayerReports(t *testing.T) {
	d := mnistDesign(t)
	reports := d.PerLayer()
	if len(reports) != 5 {
		t.Fatalf("layer report count %d", len(reports))
	}
	var total float64
	byName := map[string]LayerReport{}
	for _, r := range reports {
		total += r.Seconds
		byName[r.Name] = r
		if r.BRAM <= 0 || r.DSP <= 0 {
			t.Fatalf("layer %s has empty resources", r.Name)
		}
		if r.OffchipX < 1 {
			t.Fatalf("layer %s off-chip factor %f < 1", r.Name, r.OffchipX)
		}
	}
	if total < d.LatencySeconds()*0.99 || total > d.LatencySeconds()*1.01 {
		t.Fatalf("per-layer sum %.4f != total %.4f", total, d.LatencySeconds())
	}
	// Fig. 7's claim: Fc1 is the most time-consuming layer.
	for name, r := range byName {
		if name != "Fc1" && r.Seconds > byName["Fc1"].Seconds {
			t.Fatalf("%s slower than Fc1 — Fig. 7 shape broken", name)
		}
	}
	if byName["Cnv1"].Kind != "NKS" || byName["Fc1"].Kind != "KS" {
		t.Fatal("layer kinds wrong")
	}
}

func TestModulePlanReuse(t *testing.T) {
	d := mnistDesign(t)
	plan := d.ModulePlan()
	if len(plan) == 0 {
		t.Fatal("empty module plan")
	}
	seenKS := 0
	for _, mi := range plan {
		if len(mi.UsedBy) == 0 {
			t.Fatalf("instance %v#%d unused — should not be instantiated", mi.Op, mi.Index)
		}
		if mi.Op == profile.KeySwitch {
			seenKS++
			// The KeySwitch instances are shared by several KS layers
			// (Fig. 8: module-level reuse across Act/Fc layers).
			if mi.Index == 0 && len(mi.UsedBy) < 2 {
				t.Fatalf("first KS instance used by only %v", mi.UsedBy)
			}
		}
	}
	if seenKS == 0 {
		t.Fatal("no KeySwitch instances for a KS-bearing network")
	}
	// CCmult is used by the Act layers only.
	for _, mi := range plan {
		if mi.Op == profile.CCmult {
			for _, u := range mi.UsedBy {
				if !strings.HasPrefix(u, "Act") {
					t.Fatalf("CCmult used by %s", u)
				}
			}
		}
	}
}

func TestHLSDirectives(t *testing.T) {
	d := mnistDesign(t)
	dirs := d.HLSDirectives()
	joined := strings.Join(dirs, "\n")
	for _, want := range []string{
		"set_directive_unroll",
		"ntt_module/butterfly_loop",
		"keyswitch_module",
		"rescale_module",
		"set_directive_allocation",
		"set_directive_pipeline",
		"array_partition",
	} {
		if !strings.Contains(joined, want) {
			t.Fatalf("directives missing %q:\n%s", want, joined)
		}
	}
	// The partition factor must reflect the dual-port constraint.
	c := d.Config()
	part := hemodel.PartitionFactor(c.NcNTT)
	if !strings.Contains(joined, "-factor "+strconv.Itoa(2*part)+" ntt_module") {
		t.Fatalf("NTT partition factor %d not rendered", 2*part)
	}
}

// TestSimulatorTracksModel: the event-driven schedule lands near the
// closed-form model — within 30% for realistic stream counts — and exactly
// matches for a single stream and single instances.
func TestSimulatorTracksModel(t *testing.T) {
	p := profile.PaperMNIST()
	g := hemodel.GeometryFor(p)

	// Single stream, single instances: sim serializes to the formula.
	c := hemodel.DefaultConfig()
	for i := range p.Layers {
		layer := &p.Layers[i]
		sim := SimulateLayerCycles(c, layer, g, 1)
		model := c.LayerLatencyCycles(layer, g)
		if sim != model {
			t.Fatalf("%s: sim %d != model %d at unit config", layer.Name, sim, model)
		}
	}

	// Optimized design with parallel instances: the analytical aggregate is
	// an upper bound that the scheduler approaches.
	d := mnistDesign(t)
	for _, streams := range []int{4, 8, 16} {
		sim := SimulateCycles(d, streams)
		model := d.Solution.Cycles
		// Note the model includes DRAM spill; compare against the pure
		// on-chip aggregate.
		var onchip int64
		for i := range p.Layers {
			onchip += d.Config().LayerLatencyCycles(&p.Layers[i], g)
		}
		lo := float64(onchip) * 0.5
		hi := float64(onchip) * 1.3
		if float64(sim) < lo || float64(sim) > hi {
			t.Fatalf("streams=%d: sim %d outside [%.0f, %.0f] of model %d (spillful %d)",
				streams, sim, lo, hi, onchip, model)
		}
	}
}

// TestSimulatorMoreStreamsNeverSlower: adding independent streams can only
// improve pipeline overlap.
func TestSimulatorMoreStreamsNeverSlower(t *testing.T) {
	d := mnistDesign(t)
	prev := SimulateCycles(d, 1)
	for _, s := range []int{2, 4, 8} {
		cur := SimulateCycles(d, s)
		if cur > prev {
			t.Fatalf("streams=%d slower than fewer streams", s)
		}
		prev = cur
	}
}

func TestGenerateCIFARBothDevices(t *testing.T) {
	for _, dev := range fpga.Devices {
		d, err := Generate(profile.PaperCIFAR10(), dev)
		if err != nil {
			t.Fatalf("%s: %v", dev.Name, err)
		}
		if d.LatencySeconds() < 10 || d.LatencySeconds() > 1000 {
			t.Fatalf("%s: CIFAR latency %.0f s implausible", dev.Name, d.LatencySeconds())
		}
	}
}

// TestDesignBeatsNaive: the DSE design beats the minimal configuration.
func TestDesignBeatsNaive(t *testing.T) {
	p := profile.PaperMNIST()
	g := hemodel.GeometryFor(p)
	dev := fpga.ACU9EG
	d := mnistDesign(t)
	naive := dse.Evaluate(hemodel.DefaultConfig(), p, g, dev)
	if d.Solution.Cycles >= naive.Cycles {
		t.Fatal("DSE design no better than the minimal configuration")
	}
}

// TestDesignJSON: the exported artifact is valid JSON carrying the design's
// key facts.
func TestDesignJSON(t *testing.T) {
	d := mnistDesign(t)
	raw, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]interface{}
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded["network"] != "FxHENN-MNIST" || decoded["device"] != "ACU9EG" {
		t.Fatalf("identity fields wrong: %v", decoded["network"])
	}
	if decoded["latency_seconds"].(float64) != d.LatencySeconds() {
		t.Fatal("latency mismatch")
	}
	if len(decoded["layers"].([]interface{})) != 5 {
		t.Fatal("layer count wrong")
	}
	if len(decoded["hls_directives"].([]interface{})) == 0 {
		t.Fatal("no directives in JSON")
	}
	mods := decoded["modules"].([]interface{})
	if len(mods) == 0 {
		t.Fatal("no modules in JSON")
	}
}

package hemodel

import (
	"math"
	"testing"
	"testing/quick"

	"fxhenn/internal/fpga"
	"fxhenn/internal/profile"
)

const clock = 230e6

func ms(cycles int) float64 { return float64(cycles) / clock * 1e3 }

func within(t *testing.T, got, want, relTol float64, what string) {
	t.Helper()
	if math.Abs(got-want) > want*relTol {
		t.Fatalf("%s: got %.4g want %.4g (tol %.0f%%)", what, got, want, relTol*100)
	}
}

// TestLatNTT pins Eq. 4.
func TestLatNTT(t *testing.T) {
	if got := LatNTTCycles(8192, 2); got != 13*8192/4 {
		t.Fatalf("LatNTT(8192,2)=%d", got)
	}
	if got := LatNTTCycles(16384, 8); got != 14*16384/16 {
		t.Fatalf("LatNTT(16384,8)=%d", got)
	}
	// Doubling cores halves latency.
	if LatNTTCycles(8192, 4)*2 != LatNTTCycles(8192, 2) {
		t.Fatal("LatNTT not inversely proportional to nc")
	}
}

// TestTableI_Latency reproduces the Table I latency column: elementwise ops
// at 0.25 ms, Rescale at 1.19/0.68/0.34 ms and KeySwitch at 3.17/1.60/0.81
// ms for nc ∈ {2,4,8} on the MNIST geometry, within 10%.
func TestTableI_Latency(t *testing.T) {
	g := MNISTGeometry
	for _, op := range []profile.OpClass{profile.CCadd, profile.PCmult, profile.CCmult} {
		within(t, ms(OpLatencyCycles(op, g, 7, 2)), 0.25, 0.05, op.String()+" latency")
	}
	rescale := map[int]float64{2: 1.19, 4: 0.68, 8: 0.34}
	for nc, want := range rescale {
		within(t, ms(OpLatencyCycles(profile.Rescale, g, 7, nc)), want, 0.10, "Rescale latency")
	}
	keyswitch := map[int]float64{2: 3.17, 4: 1.60, 8: 0.81}
	for nc, want := range keyswitch {
		within(t, ms(OpLatencyCycles(profile.KeySwitch, g, 7, nc)), want, 0.05, "KeySwitch latency")
	}
}

// TestTableI_DSP reproduces the DSP column exactly at the calibration
// anchors (percent of the ACU9EG's 2520 DSPs).
func TestTableI_DSP(t *testing.T) {
	if OpDSP(profile.CCadd, 2) != 0 {
		t.Fatal("CCadd DSP must be 0 (Table I: 0.00%)")
	}
	within(t, float64(OpDSP(profile.PCmult, 2))/2520*100, 3.97, 0.02, "PCmult DSP%")
	for nc, want := range map[int]int{2: 112, 4: 184, 8: 328} {
		if got := OpDSP(profile.Rescale, nc); got != want {
			t.Fatalf("Rescale DSP(nc=%d)=%d want %d", nc, got, want)
		}
	}
	for nc, want := range map[int]int{2: 254, 4: 479, 8: 721} {
		if got := OpDSP(profile.KeySwitch, nc); got != want {
			t.Fatalf("KeySwitch DSP(nc=%d)=%d want %d", nc, got, want)
		}
	}
	// Interpolation between anchors is monotone.
	if OpDSP(profile.KeySwitch, 6) <= 479 || OpDSP(profile.KeySwitch, 6) >= 721 {
		t.Fatal("KS DSP interpolation out of range")
	}
}

// TestTableI_BRAM reproduces the BRAM column within 3%: CCadd/PCmult 10.53%
// of 912 blocks, CCmult 15.79%, Rescale 10.53/10.53/21.05%, KeySwitch
// 35.09/35.09/70.18%.
func TestTableI_BRAM(t *testing.T) {
	g := MNISTGeometry
	pct := func(blocks int) float64 { return float64(blocks) / 912 * 100 }
	within(t, pct(OpBRAM(profile.CCadd, g, 2)), 10.53, 0.03, "CCadd BRAM%")
	within(t, pct(OpBRAM(profile.PCmult, g, 2)), 10.53, 0.03, "PCmult BRAM%")
	within(t, pct(OpBRAM(profile.CCmult, g, 2)), 15.79, 0.03, "CCmult BRAM%")
	within(t, pct(OpBRAM(profile.Rescale, g, 4)), 10.53, 0.03, "Rescale BRAM% nc=4")
	within(t, pct(OpBRAM(profile.Rescale, g, 8)), 21.05, 0.03, "Rescale BRAM% nc=8")
	within(t, pct(OpBRAM(profile.KeySwitch, g, 2)), 35.09, 0.03, "KS BRAM% nc=2")
	within(t, pct(OpBRAM(profile.KeySwitch, g, 4)), 35.09, 0.03, "KS BRAM% nc=4")
	within(t, pct(OpBRAM(profile.KeySwitch, g, 8)), 70.18, 0.03, "KS BRAM% nc=8")
}

// TestPolyBufBlocks: buffer blocks per RNS polynomial.
func TestPolyBufBlocks(t *testing.T) {
	if got := PolyBufBlocks(MNISTGeometry); got != 7 {
		t.Fatalf("MNIST polyBuf=%d want 7", got)
	}
	if got := PolyBufBlocks(GeometryFor(profile.PaperCIFAR10())); got != 16 {
		t.Fatalf("CIFAR polyBuf=%d want 16", got)
	}
}

func TestPartitionFactor(t *testing.T) {
	for nc, want := range map[int]int{1: 1, 2: 1, 4: 1, 8: 2, 16: 4} {
		if got := PartitionFactor(nc); got != want {
			t.Fatalf("PartitionFactor(%d)=%d want %d", nc, got, want)
		}
	}
}

func configWithIntra(nc, intra int) Config {
	c := DefaultConfig()
	c.NcNTT = nc
	for i := range c.Modules {
		c.Modules[i].Intra = intra
	}
	return c
}

// TestTableV_Latencies reproduces the motivation DSE table: per-layer
// latencies of Cnv1 and Fc1 under intra ∈ {1,3,4} and the 2.07×
// configuration-A-over-B speedup.
func TestTableV_Latencies(t *testing.T) {
	g := MNISTGeometry
	p := profile.PaperMNIST()
	cnv1 := p.Layer("Cnv1")
	fc1 := p.Layer("Fc1")

	sec := func(cy int64) float64 { return float64(cy) / clock }

	// Config A: Cnv1 intra=1 (0.062 s), Fc1 intra=3 (0.29 s).
	within(t, sec(configWithIntra(2, 1).LayerLatencyCycles(cnv1, g)), 0.062, 0.05, "Cnv1 intra=1")
	within(t, sec(configWithIntra(2, 3).LayerLatencyCycles(fc1, g)), 0.29, 0.10, "Fc1 intra=3")
	// Config B: Cnv1 intra=4 (0.021 s), Fc1 intra=1 (0.709 s).
	within(t, sec(configWithIntra(2, 4).LayerLatencyCycles(cnv1, g)), 0.021, 0.20, "Cnv1 intra=4")
	within(t, sec(configWithIntra(2, 1).LayerLatencyCycles(fc1, g)), 0.709, 0.10, "Fc1 intra=1")

	latA := sec(configWithIntra(2, 1).LayerLatencyCycles(cnv1, g)) +
		sec(configWithIntra(2, 3).LayerLatencyCycles(fc1, g))
	latB := sec(configWithIntra(2, 4).LayerLatencyCycles(cnv1, g)) +
		sec(configWithIntra(2, 1).LayerLatencyCycles(fc1, g))
	within(t, latB/latA, 2.07, 0.05, "Table V speedup A over B")
}

// TestTableIII_OffchipFactors reproduces the off-chip degradation ratios:
// Cnv1 ≈ 16× and Fc1 ≈ 140×.
func TestTableIII_OffchipFactors(t *testing.T) {
	p := profile.PaperMNIST()
	within(t, LayerOffchipFactor(p.Layer("Cnv1")), 0.334/0.021, 0.05, "Cnv1 off-chip factor")
	within(t, LayerOffchipFactor(p.Layer("Fc1")), 22.612/0.162, 0.05, "Fc1 off-chip factor")
}

func TestLatencyWithBudgetInterpolates(t *testing.T) {
	g := MNISTGeometry
	p := profile.PaperMNIST()
	fc1 := p.Layer("Fc1")
	c := configWithIntra(2, 3)
	demand := c.LayerBRAM(fc1, g)
	full := c.LayerLatencyWithBudget(fc1, g, demand)
	none := c.LayerLatencyWithBudget(fc1, g, 0)
	half := c.LayerLatencyWithBudget(fc1, g, demand/2)
	if full != c.LayerLatencyCycles(fc1, g) {
		t.Fatal("full budget must equal on-chip latency")
	}
	if none <= full || half <= full || half >= none {
		t.Fatalf("budget interpolation not monotone: %d / %d / %d", full, half, none)
	}
	// Factor at zero budget matches the layer's off-chip multiplier.
	within(t, float64(none)/float64(full), LayerOffchipFactor(fc1), 0.01, "zero-budget factor")
}

// TestTableII_PreliminaryDesign: a per-layer dedicated design at nc=2,
// intra=inter=1 reproduces the §III observation — BRAM over-subscribed
// (aggregate ≈ 200% of the ACU9EG), DSP under-utilized (< 100%).
func TestTableII_PreliminaryDesign(t *testing.T) {
	g := MNISTGeometry
	p := profile.PaperMNIST()
	c := DefaultConfig()
	dev := fpga.ACU9EG

	sumBRAM := c.AggregateBRAM(p, g)
	bramPct := float64(sumBRAM) / float64(dev.BRAM36K) * 100
	if bramPct < 150 || bramPct > 250 {
		t.Fatalf("aggregate BRAM %.0f%%, want ≈206%% (Table II)", bramPct)
	}

	var sumDSP int
	for i := range p.Layers {
		sumDSP += c.LayerDSP(&p.Layers[i])
	}
	dspPct := float64(sumDSP) / float64(dev.DSP) * 100
	if dspPct > 100 {
		t.Fatalf("aggregate DSP %.0f%% — must stay under-utilized (Table II: 65%%)", dspPct)
	}
	// Per-layer shape: Cnv1 ≈ 25%, Act1 > Fc1 > Act2 > Fc2 in BRAM.
	within(t, float64(c.LayerBRAM(p.Layer("Cnv1"), g))/912*100, 25, 0.15, "Cnv1 BRAM%")
	b := func(name string) int { return c.LayerBRAM(p.Layer(name), g) }
	if !(b("Act1") > b("Fc1") && b("Fc1") > b("Act2") && b("Act2") > b("Fc2")) {
		t.Fatalf("per-layer BRAM ordering broken: %d %d %d %d",
			b("Act1"), b("Fc1"), b("Act2"), b("Fc2"))
	}
}

// networkLatencyCycles sums c's on-chip layer latencies over p.
func networkLatencyCycles(c Config, p *profile.Network, g Geometry) int64 {
	var total int64
	for i := range p.Layers {
		total += c.LayerLatencyCycles(&p.Layers[i], g)
	}
	return total
}

// TestLatencyMonotonicity: more parallelism never slows a layer down
// (property-based over random configs).
func TestLatencyMonotonicity(t *testing.T) {
	g := MNISTGeometry
	p := profile.PaperMNIST()
	f := func(ncIdx, intra uint8) bool {
		ncs := []int{2, 4, 8}
		nc := ncs[int(ncIdx)%3]
		i1 := 1 + int(intra)%6
		c1 := configWithIntra(nc, i1)
		c2 := configWithIntra(nc, i1+1)
		for li := range p.Layers {
			if c2.LayerLatencyCycles(&p.Layers[li], g) > c1.LayerLatencyCycles(&p.Layers[li], g) {
				return false
			}
		}
		// Doubling inter never hurts either.
		c3 := c1
		for i := range c3.Modules {
			c3.Modules[i].Inter = 2
		}
		return networkLatencyCycles(c3, p, g) <= networkLatencyCycles(c1, p, g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestResourceMonotonicity: resources grow with parallelism.
func TestResourceMonotonicity(t *testing.T) {
	g := MNISTGeometry
	p := profile.PaperMNIST()
	used := UsedOps(p)
	prevDSP, prevBRAM := 0, 0
	for intra := 1; intra <= 7; intra++ {
		c := configWithIntra(2, intra)
		dsp := c.TotalDSP(used)
		bram := c.NetworkBRAM(p, g)
		if dsp < prevDSP || bram < prevBRAM {
			t.Fatalf("resources shrank at intra=%d", intra)
		}
		prevDSP, prevBRAM = dsp, bram
	}
}

// TestInterLayerReuseSavesBRAM: peak (reuse) is strictly below aggregate
// (no reuse) for multi-layer networks.
func TestInterLayerReuseSavesBRAM(t *testing.T) {
	g := MNISTGeometry
	p := profile.PaperMNIST()
	c := DefaultConfig()
	if c.NetworkBRAM(p, g) >= c.AggregateBRAM(p, g) {
		t.Fatal("inter-layer buffer reuse saves nothing")
	}
}

func TestGeometryFor(t *testing.T) {
	g := GeometryFor(profile.PaperCIFAR10())
	if g.N != 16384 || g.L != 7 || g.WordBits != 36 {
		t.Fatalf("geometry %+v", g)
	}
}

// TestCIFARBuffersForceMinimalKS: on the CIFAR geometry (N=2^14, 36-bit
// words) the KeySwitch module at intra=1 already occupies most of the
// ACU9EG's BRAM — the Fig. 10 observation that only minimal parallelism
// fits.
func TestCIFARBuffersForceMinimalKS(t *testing.T) {
	p := profile.PaperCIFAR10()
	g := GeometryFor(p)
	cnv2 := p.Layer("Cnv2")
	c1 := DefaultConfig()
	if b := c1.LayerBRAM(cnv2, g); b < 500 {
		t.Fatalf("Cnv2 buffers %d blocks — expected most of the 912-block ACU9EG", b)
	}
	c2 := configWithIntra(2, 2)
	if c2.LayerBRAM(cnv2, g) <= 912 {
		t.Fatal("intra=2 KeySwitch should already overflow the ACU9EG on CIFAR geometry")
	}
}

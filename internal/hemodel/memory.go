package hemodel

import (
	"fxhenn/internal/profile"
	"math"
)

// Off-chip memory model (§III, Table III). When a layer's working set does
// not fit on chip, its basic operations fetch from DRAM. Elementwise
// modules stream in burst mode and degrade mildly; NTT-pattern accesses are
// non-burst and degrade severely, KeySwitch worst of all because it also
// re-reads the large keyswitch keys. The multipliers are calibrated so a
// zero-BRAM design reproduces Table III: Cnv1 degrades 16× (0.021 s →
// 0.334 s) and Fc1 140× (0.162 s → 22.6 s).
const (
	offchipElementwise = 2.0
	offchipRescale     = 45.0
	offchipKeySwitch   = 155.0
)

func offchipMultiplier(op profile.OpClass) float64 {
	switch op {
	case profile.Rescale:
		return offchipRescale
	case profile.KeySwitch:
		return offchipKeySwitch
	default:
		return offchipElementwise
	}
}

// LayerOffchipFactor returns the layer's latency multiplier when all
// operands live off-chip. Two effects bound it: the op mix (NTT-pattern
// ops degrade worse than streaming ops) and the data-reuse intensity (a
// layer that sweeps its working set thousands of times pays DRAM round
// trips on every sweep; one that touches it a few times barely notices).
// The reuse curve 0.52·slots^0.793 reproduces both Table III anchors to
// within 0.5%: Cnv1 (75 slots) → 15.9× and Fc1 (1157 slots) → 139.7×.
func LayerOffchipFactor(layer *profile.Layer) float64 {
	var slots, weighted float64
	for op := profile.OpClass(0); op < profile.NumOpClasses; op++ {
		n := float64(layer.Ops[op])
		if n == 0 {
			continue
		}
		w := 1.0
		if op == profile.KeySwitch {
			w = float64(layer.Level)
		}
		slots += n * w
		weighted += n * w * offchipMultiplier(op)
	}
	if slots == 0 {
		return 1
	}
	opMix := weighted / slots
	reuse := 0.52 * math.Pow(slots, 0.793)
	m := opMix
	if reuse < m {
		m = reuse
	}
	if m < 1 {
		m = 1
	}
	return m
}

// LayerLatencyWithBudget returns the layer latency when only budgetBlocks of
// BRAM are granted against the layer's full demand: the on-chip fraction f
// runs at full speed and the spilled fraction pays the off-chip multiplier.
// budgetBlocks ≥ demand gives the pure on-chip latency.
func (c Config) LayerLatencyWithBudget(layer *profile.Layer, g Geometry, budgetBlocks int) int64 {
	onchip := c.LayerLatencyCycles(layer, g)
	demand := c.LayerBRAM(layer, g)
	if demand <= 0 || budgetBlocks >= demand {
		return onchip
	}
	f := float64(budgetBlocks) / float64(demand)
	if f < 0 {
		f = 0
	}
	m := LayerOffchipFactor(layer)
	scaled := float64(onchip) * (f + (1-f)*m)
	return int64(scaled)
}

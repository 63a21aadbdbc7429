package hemodel

import "fxhenn/internal/profile"

// ModuleConfig is the parallelism of one HE operation module class:
// P^intra parallel basic-module copies (how many RNS polynomials are
// processed concurrently, Fig. 4) and P^inter parallel module instances
// (how many layer pipelines run side by side, Eq. 1–2).
type ModuleConfig struct {
	Intra int
	Inter int
}

// Config is a full accelerator design point: the NTT core count shared by
// all NTT-bearing modules plus the per-module parallelism — exactly the
// decision variables of the paper's DSE (§VI-B), which become HLS pragmas.
type Config struct {
	NcNTT   int
	Modules [profile.NumOpClasses]ModuleConfig
}

// DefaultConfig returns the minimal design point.
func DefaultConfig() Config {
	c := Config{NcNTT: 2}
	for i := range c.Modules {
		c.Modules[i] = ModuleConfig{Intra: 1, Inter: 1}
	}
	return c
}

// StageCycles returns the pipeline-stage time of module class op at
// ciphertext level l (Eq. 3): ceil(l / P^intra) rounds of the module's
// dominant basic operation.
func (c Config) StageCycles(op profile.OpClass, g Geometry, level int) int {
	rounds := (level + c.Modules[op].Intra - 1) / c.Modules[op].Intra
	var latB int
	if opUsesNTT(op) {
		latB = LatNTTCycles(g.N, c.NcNTT)
	} else {
		latB = LatBasicCycles(g.N, c.NcNTT)
	}
	return rounds * latB
}

// PipelineInterval returns the layer's pipeline interval PI: the slowest
// stage among the module classes that carry a meaningful share of the
// layer's pipeline slots (Eq. 3 with Eq. 6's max). A module invoked on
// under 5% of the slots drains its queue without throttling the dataflow
// steady state, so it does not set the interval — e.g. the few thousand
// Rescales inside FxHENN-CIFAR10's Cnv2 do not gate its quarter-million
// KeySwitch slots.
func (c Config) PipelineInterval(layer *profile.Layer, g Geometry) int {
	var totalSlots float64
	var slots [profile.NumOpClasses]float64
	for op := profile.OpClass(0); op < profile.NumOpClasses; op++ {
		n := float64(layer.Ops[op])
		if op == profile.KeySwitch {
			n *= float64(layer.Level)
		}
		slots[op] = n
		totalSlots += n
	}
	pi := 0
	for op := profile.OpClass(0); op < profile.NumOpClasses; op++ {
		if slots[op] == 0 || slots[op] < 0.05*totalSlots {
			continue
		}
		if s := c.StageCycles(op, g, layer.Level); s > pi {
			pi = s
		}
	}
	if pi == 0 {
		pi = c.StageCycles(profile.CCadd, g, layer.Level)
	}
	return pi
}

// LayerLatencyCycles models a layer's execution time (Eq. 1 and Eq. 2,
// generalized): every HE operation occupies one pipeline slot of length PI —
// except KeySwitch, whose data dependencies stretch it to level-many slots
// (Fig. 3) — and each module class drains its slots across its P^inter
// parallel instances.
func (c Config) LayerLatencyCycles(layer *profile.Layer, g Geometry) int64 {
	pi := int64(c.PipelineInterval(layer, g))
	var slots int64
	for op := profile.OpClass(0); op < profile.NumOpClasses; op++ {
		n := layer.Ops[op]
		if n == 0 {
			continue
		}
		weight := 1
		if op == profile.KeySwitch {
			weight = layer.Level
		}
		inter := c.Modules[op].Inter
		slots += int64((n*weight + inter - 1) / inter)
	}
	return slots * pi
}

// TotalDSP returns the design's DSP usage: one shared module set serves all
// layers (the §V-C inter-layer module reuse), so the chip-level cost is the
// per-class Eq. 7 sum.
func (c Config) TotalDSP(used [profile.NumOpClasses]bool) int {
	total := 0
	for op := profile.OpClass(0); op < profile.NumOpClasses; op++ {
		if !used[op] {
			continue
		}
		total += OpDSPScaled(op, c.NcNTT, c.Modules[op].Intra, c.Modules[op].Inter)
	}
	return total
}

// UsedOps returns which module classes a network needs at all.
func UsedOps(p *profile.Network) [profile.NumOpClasses]bool {
	var used [profile.NumOpClasses]bool
	for i := range p.Layers {
		for op := profile.OpClass(0); op < profile.NumOpClasses; op++ {
			if p.Layers[i].UsesOp(op) {
				used[op] = true
			}
		}
	}
	return used
}

// LayerDSP returns the DSP slices actively used while the given layer runs —
// the per-layer view of Fig. 8 (module reuse means the same physical DSPs
// appear in several layers' rows). A layer only engages as many instances
// of a module as it has operations for: an Act layer with one KeySwitch
// uses one of the shared KeySwitch instances, exactly the paper's Fig. 8
// observation.
func (c Config) LayerDSP(layer *profile.Layer) int {
	total := 0
	for op := profile.OpClass(0); op < profile.NumOpClasses; op++ {
		n := layer.Ops[op]
		if n == 0 {
			continue
		}
		inter := c.Modules[op].Inter
		if n < inter {
			inter = n
		}
		total += OpDSPScaled(op, c.NcNTT, c.Modules[op].Intra, inter)
	}
	return total
}

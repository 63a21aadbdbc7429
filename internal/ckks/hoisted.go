package ckks

import (
	"fmt"

	"fxhenn/internal/ring"
)

// Hoisted rotations (Halevi-Shoup): the expensive part of a rotation is the
// keyswitch decomposition of c1 — one INTT plus a forward NTT per (digit,
// modulus) pair. When the same ciphertext is rotated by many amounts (the
// rotate-and-sum ladders of every KS layer), the decomposition can be
// computed once and only permuted per rotation, because the Galois map is
// an index permutation in the NTT domain. This is the classic optimization
// the paper leaves on the table; it is exposed here as a library extension
// and quantified by BenchmarkHoistedRotations.

// HoistedDecomposition is the reusable NTT-domain keyswitch decomposition
// of a ciphertext's c1 part over the extended basis (q_0..q_{k-1}, p).
type HoistedDecomposition struct {
	level   int
	digitsQ [][][]uint64 // [digit][targetRow][coeff]
	digitsP [][]uint64   // [digit][coeff]
}

// DecomposeForRotation computes the hoisted decomposition of ct (degree 1).
func (ev *Evaluator) DecomposeForRotation(ct *Ciphertext) *HoistedDecomposition {
	if ct.Degree() != 1 {
		panic("ckks: hoisting requires a degree-1 ciphertext")
	}
	r := ev.params.Ring()
	k := ct.Level()
	sp := ev.spIdx

	cc := ct.Value[1].Copy()
	r.INTT(cc)

	hd := &HoistedDecomposition{
		level:   k,
		digitsQ: make([][][]uint64, k),
		digitsP: make([][]uint64, k),
	}
	// Each digit's extended-basis expansion writes only its own slices.
	r.Pool().Do(k, func(i int) {
		d := cc.Coeffs[i]
		hd.digitsQ[i] = make([][]uint64, k)
		for j := 0; j < k; j++ {
			row := make([]uint64, r.N)
			if j == i {
				copy(row, d)
			} else {
				r.Mods[j].ReduceVec(row, d)
			}
			r.Tables[j].Forward(row)
			hd.digitsQ[i][j] = row
		}
		prow := make([]uint64, r.N)
		r.Mods[sp].ReduceVec(prow, d)
		r.Tables[sp].Forward(prow)
		hd.digitsP[i] = prow
	})
	return hd
}

// RotateHoisted rotates ct by every amount in ks using one shared
// decomposition, returning a map from rotation amount to result. Rotation
// by zero returns a copy.
func (ev *Evaluator) RotateHoisted(ct *Ciphertext, ks []int) map[int]*Ciphertext {
	if ev.rtk == nil {
		panic("ckks: no rotation keys")
	}
	hd := ev.DecomposeForRotation(ct)
	out := make(map[int]*Ciphertext, len(ks))
	for _, k := range ks {
		if _, done := out[k]; done {
			continue
		}
		if k == 0 {
			out[0] = ct.Copy()
			continue
		}
		out[k] = ev.rotateWithDecomposition(ct, hd, k)
	}
	return out
}

// rotateWithDecomposition applies one rotation using the hoisted digits.
func (ev *Evaluator) rotateWithDecomposition(ct *Ciphertext, hd *HoistedDecomposition, k int) *Ciphertext {
	g := ev.params.GaloisElementForRotation(k)
	swk, ok := ev.rtk.Keys[g]
	if !ok {
		panic(fmt.Sprintf("ckks: missing Galois key for rotation %d", k))
	}
	level := hd.level
	swk.check(level)
	r := ev.params.Ring()
	n := r.N
	spMod := r.Mods[ev.spIdx]
	kp := swk.B[0].K() - 1 // the key's special-prime row is its last
	perm := r.NTTAutomorphismIndex(g)

	u0 := r.NewPoly(level)
	u1 := r.NewPoly(level)
	u0p := make([]uint64, n)
	u1p := make([]uint64, n)

	// Target-row-outer, same shape as keySwitchCore: the level+1 extended
	// rows are independent, and digits accumulate in ascending order within
	// each row so the parallel result is bit-exact with the serial one.
	// Same lazy Montgomery MAC discipline as keySwitchCore: key rows are in
	// Montgomery form, accumulators collect unreduced [0, 2q) terms with a
	// guard against uint64 overflow, and one ReduceVec per row restores
	// canonical residues.
	r.Pool().Do(level+1, func(j int) {
		tmp := make([]uint64, n)
		if j == level { // special-prime row
			maxLazy := spMod.MaxLazyAdds()
			terms := 0
			for i := 0; i < level; i++ {
				ring.PermuteVec(tmp, hd.digitsP[i], perm)
				terms = lazyMACGuard(spMod, terms, maxLazy, u0p, u1p)
				spMod.MulMontAddLazyVec(u0p, tmp, swk.B[i].Coeffs[kp])
				spMod.MulMontAddLazyVec(u1p, tmp, swk.A[i].Coeffs[kp])
			}
			spMod.ReduceVec(u0p, u0p)
			spMod.ReduceVec(u1p, u1p)
			return
		}
		mj := r.Mods[j]
		maxLazy := mj.MaxLazyAdds()
		terms := 0
		for i := 0; i < level; i++ {
			ring.PermuteVec(tmp, hd.digitsQ[i][j], perm)
			terms = lazyMACGuard(mj, terms, maxLazy, u0.Coeffs[j], u1.Coeffs[j])
			mj.MulMontAddLazyVec(u0.Coeffs[j], tmp, swk.B[i].Coeffs[j])
			mj.MulMontAddLazyVec(u1.Coeffs[j], tmp, swk.A[i].Coeffs[j])
		}
		mj.ReduceVec(u0.Coeffs[j], u0.Coeffs[j])
		mj.ReduceVec(u1.Coeffs[j], u1.Coeffs[j])
	})
	ev.modDown(u0, u0p)
	ev.modDown(u1, u1p)

	// σ_g(c0) directly in the NTT domain, added into the keyswitched c0.
	r.PermuteNTTAdd(u0, ct.Value[0], perm)
	ev.record(OpRotate, level)
	return &Ciphertext{Value: []*ring.Poly{u0, u1}, Scale: ct.Scale}
}

package ring

import (
	"math/bits"
)

// NTT-domain automorphisms. In the evaluation domain the Galois map
// X -> X^g is a pure index permutation of the NTT values (evaluations move
// between roots of unity, with no sign bookkeeping), which is what makes
// hoisted rotations cheap: a ciphertext's keyswitch decomposition can be
// computed once and permuted per rotation instead of re-transformed.

// NTTAutomorphismIndex returns the permutation perm such that applying
// X -> X^g to an NTT-domain polynomial is out[j] = in[perm[j]].
//
// With the merged-twist layout, slot j of the NTT output holds the
// evaluation at ψ^(2·brv(j)+1). σ_g moves the evaluation at ψ^e to the
// polynomial's value at ψ^(e·g), so slot j of the output reads the input
// slot holding exponent (2·brv(j)+1)·g mod 2N.
func (r *Ring) NTTAutomorphismIndex(g uint64) []int {
	n := uint64(r.N)
	logN := bits.Len(uint(n)) - 1
	if g%2 == 0 {
		panic("ring: automorphism exponent must be odd")
	}
	perm := make([]int, r.N)
	mask := 2*n - 1
	for j := uint64(0); j < n; j++ {
		e := (2*brv32(j, logN) + 1) * g & mask
		perm[j] = int(brv32((e-1)/2, logN))
	}
	return perm
}

func brv32(v uint64, logN int) uint64 {
	return uint64(bits.Reverse32(uint32(v)) >> (32 - uint(logN)))
}

// PermuteNTT applies a precomputed automorphism permutation to every row of
// the NTT-domain polynomial a, writing into out (distinct from a).
func (r *Ring) PermuteNTT(out, a *Poly, perm []int) {
	if out == a {
		panic("ring: PermuteNTT requires out != a")
	}
	k := r.checkSameK(out, a)
	for i := range k {
		PermuteVec(out.Coeffs[i], a.Coeffs[i], perm)
	}
}

// PermuteNTTAdd adds the automorphism permutation of the NTT-domain
// polynomial a into out (distinct from a): out += σ(a), with the same
// per-coefficient modular add as Add.
func (r *Ring) PermuteNTTAdd(out, a *Poly, perm []int) {
	if out == a {
		panic("ring: PermuteNTTAdd requires out != a")
	}
	k := r.checkSameK(out, a)
	for i := range k {
		m, dst, src := r.Mods[i], out.Coeffs[i], a.Coeffs[i]
		for j, p := range perm {
			dst[j] = m.Add(src[p], dst[j])
		}
	}
}

// PermuteVec applies the permutation to a single residue row.
func PermuteVec(dst, src []uint64, perm []int) {
	for j, p := range perm {
		dst[j] = src[p]
	}
}

// Package ntt implements the negacyclic number-theoretic transform over
// Z_q[X]/(X^N+1), the fundamental building block of the Rescale and
// KeySwitch HE operations and — per the paper's first observation (§III) —
// the performance bottleneck of the whole HE-CNN accelerator.
//
// The implementation follows the merged-twist iterative algorithm of Longa &
// Naehrig: the forward transform folds the ψ^i twisting into the butterfly
// twiddles (stored in bit-reversed order), so polynomial multiplication is
// NTT → pointwise → INTT with no separate bit-reversal or twisting passes.
//
// Parallelism contract: a Table is immutable after NewTable, so Forward and
// Inverse are safe to call concurrently on distinct coefficient slices. A
// single transform is intentionally single-threaded — parallelism lives one
// layer up, in package ring, which dispatches one transform per RNS limb to
// the shared worker pool (each limb is an independent Table).
package ntt

import (
	"fmt"
	"math/bits"

	"fxhenn/internal/modarith"
	"fxhenn/internal/primes"
)

// Table holds the precomputed twiddle factors for transforms of length N
// over a single RNS modulus q.
type Table struct {
	N   int
	Mod modarith.Modulus

	psiRev    []modarith.MulConst // ψ^bitrev(i), Shoup form, forward butterflies
	psiInvRev []modarith.MulConst // ψ^-bitrev(i), inverse butterflies
	nInv      modarith.MulConst   // N^-1 mod q, folded into the inverse pass
}

// NewTable precomputes twiddles for length-n transforms modulo q. n must be
// a power of two and q ≡ 1 (mod 2n).
func NewTable(n int, q uint64) *Table {
	if n < 2 || n&(n-1) != 0 {
		panic(fmt.Sprintf("ntt: length %d is not a power of two ≥ 2", n))
	}
	if (q-1)%uint64(2*n) != 0 {
		panic(fmt.Sprintf("ntt: modulus %d is not NTT-friendly for N=%d", q, n))
	}
	mod := modarith.NewModulus(q)
	psi := primes.MinimalPrimitiveRootOfUnity(q, uint64(2*n))
	psiInv := mod.Inv(psi)

	logN := bits.TrailingZeros(uint(n))
	t := &Table{
		N:         n,
		Mod:       mod,
		psiRev:    make([]modarith.MulConst, n),
		psiInvRev: make([]modarith.MulConst, n),
	}
	fwd, inv := uint64(1), uint64(1)
	for i := 0; i < n; i++ {
		r := reverseBits(uint32(i), logN)
		t.psiRev[r] = modarith.NewMulConst(mod, fwd)
		t.psiInvRev[r] = modarith.NewMulConst(mod, inv)
		fwd = mod.Mul(fwd, psi)
		inv = mod.Mul(inv, psiInv)
	}
	t.nInv = modarith.NewMulConst(mod, mod.Inv(uint64(n)))
	return t
}

func reverseBits(v uint32, n int) uint32 {
	return bits.Reverse32(v) >> (32 - uint(n))
}

// The butterflies below are David Harvey's lazy variants: intermediate
// values are NOT reduced to [0, q) between stages. The forward transform
// keeps the invariant "stage inputs < 4q" (one conditional subtraction of 2q
// per butterfly restores it), the inverse keeps "stage inputs < 2q", and a
// single full-reduction pass at the end restores the canonical range — so
// the transforms stay bit-identical to eager Barrett versions while dropping
// two reductions per butterfly. Correctness of the Shoup product for ANY
// 64-bit operand (given w < q) is what lets operands in [0, 4q) flow
// straight into the next stage; q < 2^62 (the NewModulus contract) keeps
// u + 2q - vw below 2^64.

// ctButterfly is the lazy Cooley-Tukey butterfly (u, v) -> (u + w·v, u - w·v)
// with inputs < 4q and outputs < 4q.
func ctButterfly(u, v, w, wShoup, q, twoQ uint64) (uint64, uint64) {
	if u >= twoQ {
		u -= twoQ
	}
	qhat, _ := bits.Mul64(v, wShoup)
	vw := v*w - qhat*q // Shoup lazy product, in [0, 2q)
	return u + vw, u + twoQ - vw
}

// gsButterfly is the lazy Gentleman-Sande butterfly (u, v) -> (u + v, w·(u - v))
// with inputs < 2q and outputs < 2q.
func gsButterfly(u, v, w, wShoup, q, twoQ uint64) (uint64, uint64) {
	s := u + v
	if s >= twoQ {
		s -= twoQ
	}
	d := u + twoQ - v // in [0, 4q), a valid Shoup operand
	qhat, _ := bits.Mul64(d, wShoup)
	return s, d*w - qhat*q
}

// Forward transforms a (length N, coefficients < q) in place from coefficient
// representation to the negacyclic evaluation (NTT) domain.
func (t *Table) Forward(a []uint64) {
	if len(a) != t.N {
		panic(fmt.Sprintf("ntt: length %d != N=%d", len(a), t.N))
	}
	q := t.Mod.Q
	twoQ := 2 * q
	n := t.N
	tt := n
	for m := 1; m < n; m <<= 1 {
		tt >>= 1
		for i := 0; i < m; i++ {
			j1 := 2 * i * tt
			w := t.psiRev[m+i]
			wv, ws := w.W, w.WShoup
			x := a[j1 : j1+tt : j1+tt]
			y := a[j1+tt : j1+2*tt : j1+2*tt]
			if tt >= 8 {
				for j := 0; j < tt; j += 8 {
					xa := (*[8]uint64)(x[j:])
					ya := (*[8]uint64)(y[j:])
					xa[0], ya[0] = ctButterfly(xa[0], ya[0], wv, ws, q, twoQ)
					xa[1], ya[1] = ctButterfly(xa[1], ya[1], wv, ws, q, twoQ)
					xa[2], ya[2] = ctButterfly(xa[2], ya[2], wv, ws, q, twoQ)
					xa[3], ya[3] = ctButterfly(xa[3], ya[3], wv, ws, q, twoQ)
					xa[4], ya[4] = ctButterfly(xa[4], ya[4], wv, ws, q, twoQ)
					xa[5], ya[5] = ctButterfly(xa[5], ya[5], wv, ws, q, twoQ)
					xa[6], ya[6] = ctButterfly(xa[6], ya[6], wv, ws, q, twoQ)
					xa[7], ya[7] = ctButterfly(xa[7], ya[7], wv, ws, q, twoQ)
				}
			} else {
				for j := range x {
					x[j], y[j] = ctButterfly(x[j], y[j], wv, ws, q, twoQ)
				}
			}
		}
	}
	// Collapse the lazy range [0, 4q) to the canonical [0, q).
	nn := n &^ 7
	for j := 0; j < nn; j += 8 {
		z := (*[8]uint64)(a[j:])
		z[0] = reduce4Q(z[0], q, twoQ)
		z[1] = reduce4Q(z[1], q, twoQ)
		z[2] = reduce4Q(z[2], q, twoQ)
		z[3] = reduce4Q(z[3], q, twoQ)
		z[4] = reduce4Q(z[4], q, twoQ)
		z[5] = reduce4Q(z[5], q, twoQ)
		z[6] = reduce4Q(z[6], q, twoQ)
		z[7] = reduce4Q(z[7], q, twoQ)
	}
	for j := nn; j < n; j++ {
		a[j] = reduce4Q(a[j], q, twoQ)
	}
}

func reduce4Q(r, q, twoQ uint64) uint64 {
	if r >= twoQ {
		r -= twoQ
	}
	if r >= q {
		r -= q
	}
	return r
}

// Inverse transforms a in place from the NTT domain back to coefficient
// representation, including the 1/N normalization.
func (t *Table) Inverse(a []uint64) {
	if len(a) != t.N {
		panic(fmt.Sprintf("ntt: length %d != N=%d", len(a), t.N))
	}
	mod := t.Mod
	q := mod.Q
	twoQ := 2 * q
	n := t.N
	tt := 1
	for m := n; m > 1; m >>= 1 {
		j1 := 0
		h := m >> 1
		for i := 0; i < h; i++ {
			w := t.psiInvRev[h+i]
			wv, ws := w.W, w.WShoup
			x := a[j1 : j1+tt : j1+tt]
			y := a[j1+tt : j1+2*tt : j1+2*tt]
			if tt >= 8 {
				for j := 0; j < tt; j += 8 {
					xa := (*[8]uint64)(x[j:])
					ya := (*[8]uint64)(y[j:])
					xa[0], ya[0] = gsButterfly(xa[0], ya[0], wv, ws, q, twoQ)
					xa[1], ya[1] = gsButterfly(xa[1], ya[1], wv, ws, q, twoQ)
					xa[2], ya[2] = gsButterfly(xa[2], ya[2], wv, ws, q, twoQ)
					xa[3], ya[3] = gsButterfly(xa[3], ya[3], wv, ws, q, twoQ)
					xa[4], ya[4] = gsButterfly(xa[4], ya[4], wv, ws, q, twoQ)
					xa[5], ya[5] = gsButterfly(xa[5], ya[5], wv, ws, q, twoQ)
					xa[6], ya[6] = gsButterfly(xa[6], ya[6], wv, ws, q, twoQ)
					xa[7], ya[7] = gsButterfly(xa[7], ya[7], wv, ws, q, twoQ)
				}
			} else {
				for j := range x {
					x[j], y[j] = gsButterfly(x[j], y[j], wv, ws, q, twoQ)
				}
			}
			j1 += 2 * tt
		}
		tt <<= 1
	}
	// The closing Shoup multiply by 1/N accepts the lazy [0, 2q) range and
	// returns canonical residues, so no separate reduction pass is needed.
	for j := 0; j < n; j++ {
		a[j] = t.nInv.Mul(a[j], mod)
	}
}

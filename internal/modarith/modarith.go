// Package modarith provides the word-level modular arithmetic primitives that
// every HE "basic operation" in the paper reduces to: Barrett reduction,
// modular addition/subtraction/multiplication, exponentiation and inversion
// over word-size primes (the RNS factors q_i of the CKKS coefficient
// modulus Q).
//
// All moduli handled here are NTT-friendly primes below 2^62, so a product of
// two residues fits in a 128-bit intermediate obtained via math/bits.
package modarith

import (
	"fmt"
	"math/bits"
)

// Modulus bundles a word-size prime with the precomputed constants needed for
// Barrett and Montgomery reduction. It corresponds to a single RNS factor q_i.
type Modulus struct {
	Q uint64 // the prime modulus, Q < 2^62

	// BarrettHi:BarrettLo hold floor(2^128 / Q), the 128-bit Barrett
	// constant used to reduce 128-bit products.
	BarrettHi uint64
	BarrettLo uint64

	// QInv = Q^-1 mod 2^64, the Montgomery (REDC) constant: for any
	// 128-bit product hi:lo, lo*QInv*Q ≡ lo (mod 2^64), so
	// (hi:lo - (lo*QInv)*Q) / 2^64 is exact integer division. Odd Q only
	// (always true for NTT primes).
	QInv uint64
	// R2 = 2^128 mod Q, used to enter Montgomery form: MRed(a, R2) = a·R.
	R2 uint64
}

// NewModulus precomputes Barrett and Montgomery constants for q. It panics
// if q is zero, one, or does not fit the q < 2^62 contract (needed so lazy
// values in [0, 2q) stay below 2^63 and lazy butterfly operands below 2^64).
// The Montgomery constants (QInv, R2) exist only for odd q — the REDC-based
// methods (MRed and friends) must not be used with an even modulus; all NTT
// primes are odd, so every hot path qualifies.
func NewModulus(q uint64) Modulus {
	if q < 2 || q >= 1<<62 {
		panic(fmt.Sprintf("modarith: modulus %d out of range [2, 2^62)", q))
	}
	// Compute floor(2^128 / q) via two chained 64-bit divisions:
	// first floor(2^64/q) then the remainder-extended low word.
	hi, r := bits.Div64(1, 0, q) // floor(2^64 / q), remainder r
	lo, _ := bits.Div64(r, 0, q) // floor(r*2^64 / q)
	m := Modulus{Q: q, BarrettHi: hi, BarrettLo: lo}
	if q&1 == 1 {
		// Newton iteration for q^-1 mod 2^64: each step doubles the
		// number of correct low bits; odd q seeds 3 correct bits, five
		// steps reach 96.
		qinv := q
		for i := 0; i < 5; i++ {
			qinv *= 2 - q*qinv
		}
		m.QInv = qinv
		rModQ := r                 // 2^64 mod q, from the division above
		m.R2 = m.Mul(rModQ, rModQ) // (2^64)^2 mod q
	}
	return m
}

// Add returns (a + b) mod q for a, b < q.
func (m Modulus) Add(a, b uint64) uint64 {
	s := a + b
	if s >= m.Q {
		s -= m.Q
	}
	return s
}

// Sub returns (a - b) mod q for a, b < q.
func (m Modulus) Sub(a, b uint64) uint64 {
	if a >= b {
		return a - b
	}
	return a + m.Q - b
}

// Neg returns (-a) mod q for a < q.
func (m Modulus) Neg(a uint64) uint64 {
	if a == 0 {
		return 0
	}
	return m.Q - a
}

// Reduce returns x mod q for an arbitrary 64-bit x using Barrett reduction.
func (m Modulus) Reduce(x uint64) uint64 {
	// q̂ = floor(x * floor(2^64/q) / 2^64) approximates floor(x/q) within 1.
	qhat, _ := bits.Mul64(x, m.BarrettHi)
	r := x - qhat*m.Q
	if r >= m.Q {
		r -= m.Q
	}
	return r
}

// ReduceWide returns (hi*2^64 + lo) mod q via 128-bit Barrett reduction.
// The caller must guarantee hi*2^64 + lo < q*2^64 so the quotient fits one
// word; products of two residues (each < q) always satisfy this.
func (m Modulus) ReduceWide(hi, lo uint64) uint64 {
	// Estimate quotient: qhat = floor( x * floor(2^128/q) / 2^128 ).
	// x = hi*2^64 + lo, constant c = BarrettHi*2^64 + BarrettLo.
	// We need the 2^128-weighted word of the 256-bit product x*c; every
	// approximation below rounds down, so qhat underestimates the true
	// quotient by at most 2 and the correction loop finishes the job.
	h1, _ := bits.Mul64(lo, m.BarrettLo) // contributes at 2^64
	m1h, m1l := bits.Mul64(lo, m.BarrettHi)
	m2h, m2l := bits.Mul64(hi, m.BarrettLo)
	t1l := hi * m.BarrettHi // low word of hi*BarrettHi, weighted 2^128

	// Sum the 2^64-weighted words to get carries into the 2^128 word.
	mid, c1 := bits.Add64(m1l, m2l, 0)
	mid, c2 := bits.Add64(mid, h1, 0)
	carry := c1 + c2

	qhat := t1l + m1h + m2h + carry // low word of floor(x*c/2^128), possible wrap is benign after correction loop

	// r = x - qhat*q (mod 2^128); true remainder is r or r - q or r - 2q.
	ph, pl := bits.Mul64(qhat, m.Q)
	rl, borrow := bits.Sub64(lo, pl, 0)
	rh, _ := bits.Sub64(hi, ph, borrow)
	// The estimate is within 2 of the true quotient, so at most two
	// corrective subtractions are needed; rh can only be nonzero when the
	// estimate undershot, in which case subtracting q drains it.
	for rh != 0 || rl >= m.Q {
		rl, borrow = bits.Sub64(rl, m.Q, 0)
		rh -= borrow
	}
	return rl
}

// Mul returns (a * b) mod q for a, b < q.
func (m Modulus) Mul(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return m.ReduceWide(hi, lo)
}

// MulAdd returns (a*b + c) mod q for a, b, c < q.
func (m Modulus) MulAdd(a, b, c uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	var carry uint64
	lo, carry = bits.Add64(lo, c, 0)
	hi += carry
	return m.ReduceWide(hi, lo)
}

// MRed returns a·b·2^-64 mod q (Montgomery REDC of the product a*b), fully
// reduced to [0, q). With b in Montgomery form (b = x·2^64 mod q) this
// computes a·x mod q — the kernel the keyswitch inner products use: the
// evaluation keys are stored in Montgomery form, so their products land
// back in the plain domain with two 64-bit multiplies instead of Barrett's
// four. Requires a·b < 2^64·q (always true for a < 2^64, b < q).
func (m Modulus) MRed(a, b uint64) uint64 {
	r := m.MRedLazy(a, b)
	if r >= m.Q {
		r -= m.Q
	}
	return r
}

// MRedLazy is MRed without the final conditional subtraction: the result is
// only guaranteed to lie in [0, 2q) — the "lazy" double-width-bounded form.
// Callers accumulate lazy values and defer the reduction to the end of the
// loop; MaxLazyAdds bounds how many lazy terms a uint64 accumulator can
// absorb before it must be reduced.
func (m Modulus) MRedLazy(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	h, _ := bits.Mul64(lo*m.QInv, m.Q)
	// lo - (lo*QInv)*Q ≡ 0 (mod 2^64), so the 128-bit difference
	// (hi:lo) - (lo*QInv)*Q is an exact multiple of 2^64 with high word
	// hi - h ∈ (-q, q); adding q keeps it nonnegative without a branch.
	return hi - h + m.Q
}

// MForm returns a·2^64 mod q — a converted into Montgomery form.
func (m Modulus) MForm(a uint64) uint64 {
	return m.MRed(a, m.R2)
}

// MaxLazyAdds returns how many lazy terms (each < 2q) can be accumulated in
// a uint64 before the sum may overflow — the lazy-reduction bounds contract
// (DESIGN.md §16). For the ≤62-bit NTT primes this is at least 2; for the
// 30–50-bit production primes it is astronomically large, so the keyswitch
// loop's periodic-reduction guard never fires in practice.
func (m Modulus) MaxLazyAdds() int {
	max := ^uint64(0) / (2 * m.Q)
	const intMax = int(^uint(0) >> 1)
	if max > uint64(intMax) {
		return intMax
	}
	return int(max)
}

// Pow returns a^e mod q by square-and-multiply.
func (m Modulus) Pow(a, e uint64) uint64 {
	result := uint64(1)
	base := m.Reduce(a)
	for e > 0 {
		if e&1 == 1 {
			result = m.Mul(result, base)
		}
		base = m.Mul(base, base)
		e >>= 1
	}
	return result
}

// Inv returns a^-1 mod q. It panics if a ≡ 0 (mod q). Because q is prime,
// the inverse is a^(q-2) by Fermat's little theorem.
func (m Modulus) Inv(a uint64) uint64 {
	a = m.Reduce(a)
	if a == 0 {
		panic("modarith: inverse of zero")
	}
	return m.Pow(a, m.Q-2)
}

// MulConst holds a precomputed Shoup constant for repeated multiplication by
// a fixed operand w mod q: wShoup = floor(w * 2^64 / q). Shoup multiplication
// replaces Barrett's 128-bit reduction with one high-product and one
// multiply, which is what the NTT inner loop uses (it mirrors the DSP-lean
// butterfly the paper's HLS modules implement).
type MulConst struct {
	W      uint64
	WShoup uint64
}

// NewMulConst precomputes the Shoup constant for w under m.
func NewMulConst(m Modulus, w uint64) MulConst {
	w = m.Reduce(w)
	hi, _ := bits.Div64(w, 0, m.Q)
	return MulConst{W: w, WShoup: hi}
}

// Mul returns (a * c.W) mod q using Shoup's trick. It accepts any 64-bit a
// (the quotient estimate is off by at most one for w < q), so it also
// serves as the full-reduction step closing a lazy pipeline.
func (c MulConst) Mul(a uint64, m Modulus) uint64 {
	qhat, _ := bits.Mul64(a, c.WShoup)
	r := a*c.W - qhat*m.Q
	if r >= m.Q {
		r -= m.Q
	}
	return r
}

// The vector kernels below stream N coefficients — the paper's elementwise
// "basic operation modules" (ModAdd/ModSub/ModMult). Each body is unrolled
// eight wide over (*[8]uint64) array pointers: converting the slice window to
// a fixed-size array proves the bounds to the compiler, so the inner block
// carries no bounds checks, and the tail loop mops up the last len mod 8
// elements.

// AddVec computes out[i] = (a[i] + b[i]) mod q over equal-length slices.
func (m Modulus) AddVec(out, a, b []uint64) {
	checkLen(len(out), len(a), len(b))
	q := m.Q
	n := len(out) &^ 7
	for i := 0; i < n; i += 8 {
		x := (*[8]uint64)(a[i:])
		y := (*[8]uint64)(b[i:])
		z := (*[8]uint64)(out[i:])
		z[0] = addMod(x[0], y[0], q)
		z[1] = addMod(x[1], y[1], q)
		z[2] = addMod(x[2], y[2], q)
		z[3] = addMod(x[3], y[3], q)
		z[4] = addMod(x[4], y[4], q)
		z[5] = addMod(x[5], y[5], q)
		z[6] = addMod(x[6], y[6], q)
		z[7] = addMod(x[7], y[7], q)
	}
	for i := n; i < len(out); i++ {
		out[i] = m.Add(a[i], b[i])
	}
}

func addMod(a, b, q uint64) uint64 {
	s := a + b
	if s >= q {
		s -= q
	}
	return s
}

// MulVec computes out[i] = (a[i] * b[i]) mod q via Barrett reduction. This is
// the cold-path general product; hot loops with one Montgomery-form operand
// use MulMontVec instead.
func (m Modulus) MulVec(out, a, b []uint64) {
	checkLen(len(out), len(a), len(b))
	n := len(out) &^ 3
	for i := 0; i < n; i += 4 {
		x := (*[4]uint64)(a[i:])
		y := (*[4]uint64)(b[i:])
		z := (*[4]uint64)(out[i:])
		z[0] = m.Mul(x[0], y[0])
		z[1] = m.Mul(x[1], y[1])
		z[2] = m.Mul(x[2], y[2])
		z[3] = m.Mul(x[3], y[3])
	}
	for i := n; i < len(out); i++ {
		out[i] = m.Mul(a[i], b[i])
	}
}

// MulAddVec computes out[i] = (out[i] + a[i]*b[i]) mod q, the fully-reduced
// HE-MAC kernel (Barrett). The keyswitch hot loop uses MulMontAddLazyVec.
func (m Modulus) MulAddVec(out, a, b []uint64) {
	checkLen(len(out), len(a), len(b))
	n := len(out) &^ 3
	for i := 0; i < n; i += 4 {
		x := (*[4]uint64)(a[i:])
		y := (*[4]uint64)(b[i:])
		z := (*[4]uint64)(out[i:])
		z[0] = m.MulAdd(x[0], y[0], z[0])
		z[1] = m.MulAdd(x[1], y[1], z[1])
		z[2] = m.MulAdd(x[2], y[2], z[2])
		z[3] = m.MulAdd(x[3], y[3], z[3])
	}
	for i := n; i < len(out); i++ {
		out[i] = m.MulAdd(a[i], b[i], out[i])
	}
}

// MFormVec converts a into Montgomery form elementwise: out[i] = a[i]·2^64
// mod q. Inputs may be arbitrary 64-bit values; outputs are fully reduced.
func (m Modulus) MFormVec(out, a []uint64) {
	checkLen(len(out), len(a), len(a))
	n := len(out) &^ 7
	for i := 0; i < n; i += 8 {
		x := (*[8]uint64)(a[i:])
		z := (*[8]uint64)(out[i:])
		z[0] = m.MRed(x[0], m.R2)
		z[1] = m.MRed(x[1], m.R2)
		z[2] = m.MRed(x[2], m.R2)
		z[3] = m.MRed(x[3], m.R2)
		z[4] = m.MRed(x[4], m.R2)
		z[5] = m.MRed(x[5], m.R2)
		z[6] = m.MRed(x[6], m.R2)
		z[7] = m.MRed(x[7], m.R2)
	}
	for i := n; i < len(out); i++ {
		out[i] = m.MForm(a[i])
	}
}

// MulMontVec computes out[i] = a[i]·x[i] mod q where bMont[i] = x[i]·2^64
// mod q is the second operand in Montgomery form. Results are fully reduced
// and bit-identical to MulVec(out, a, x): REDC cancels the 2^64 factor
// exactly, which is why switching keys can be stored in Montgomery form
// without perturbing ciphertext digests.
func (m Modulus) MulMontVec(out, a, bMont []uint64) {
	checkLen(len(out), len(a), len(bMont))
	n := len(out) &^ 7
	for i := 0; i < n; i += 8 {
		x := (*[8]uint64)(a[i:])
		y := (*[8]uint64)(bMont[i:])
		z := (*[8]uint64)(out[i:])
		z[0] = m.MRed(x[0], y[0])
		z[1] = m.MRed(x[1], y[1])
		z[2] = m.MRed(x[2], y[2])
		z[3] = m.MRed(x[3], y[3])
		z[4] = m.MRed(x[4], y[4])
		z[5] = m.MRed(x[5], y[5])
		z[6] = m.MRed(x[6], y[6])
		z[7] = m.MRed(x[7], y[7])
	}
	for i := n; i < len(out); i++ {
		out[i] = m.MRed(a[i], bMont[i])
	}
}

// MulMontAddLazyVec computes acc[i] += a[i]·x[i]·2^-64 mod q with bMont in
// Montgomery form, WITHOUT reducing the accumulator — the lazy keyswitch MAC
// kernel. Each call adds a value in [0, 2q) to acc, so the caller may chain
// at most MaxLazyAdds calls (counting the accumulator's own initial bound)
// before a ReduceVec; the keyswitch loop enforces that budget explicitly.
// Inputs a may be arbitrary 64-bit values.
func (m Modulus) MulMontAddLazyVec(acc, a, bMont []uint64) {
	checkLen(len(acc), len(a), len(bMont))
	n := len(acc) &^ 7
	for i := 0; i < n; i += 8 {
		x := (*[8]uint64)(a[i:])
		y := (*[8]uint64)(bMont[i:])
		z := (*[8]uint64)(acc[i:])
		z[0] += m.MRedLazy(x[0], y[0])
		z[1] += m.MRedLazy(x[1], y[1])
		z[2] += m.MRedLazy(x[2], y[2])
		z[3] += m.MRedLazy(x[3], y[3])
		z[4] += m.MRedLazy(x[4], y[4])
		z[5] += m.MRedLazy(x[5], y[5])
		z[6] += m.MRedLazy(x[6], y[6])
		z[7] += m.MRedLazy(x[7], y[7])
	}
	for i := n; i < len(acc); i++ {
		acc[i] += m.MRedLazy(a[i], bMont[i])
	}
}

// MulMontScalarAddLazyVec is MulMontAddLazyVec with every bMont[i] equal
// to sMont: acc[i] += a[i]·x·2^-64 mod q for sMont = x·2^64 mod q, the
// lazy MAC of a broadcast constant. Each call adds a value in [0, 2q) to
// acc, the term bound of MulMontAddLazyVec, so the two kernels share one
// MaxLazyAdds budget and may be mixed in one accumulation.
func (m Modulus) MulMontScalarAddLazyVec(acc, a []uint64, sMont uint64) {
	checkLen(len(acc), len(a), len(a))
	n := len(acc) &^ 7
	for i := 0; i < n; i += 8 {
		x := (*[8]uint64)(a[i:])
		z := (*[8]uint64)(acc[i:])
		z[0] += m.MRedLazy(x[0], sMont)
		z[1] += m.MRedLazy(x[1], sMont)
		z[2] += m.MRedLazy(x[2], sMont)
		z[3] += m.MRedLazy(x[3], sMont)
		z[4] += m.MRedLazy(x[4], sMont)
		z[5] += m.MRedLazy(x[5], sMont)
		z[6] += m.MRedLazy(x[6], sMont)
		z[7] += m.MRedLazy(x[7], sMont)
	}
	for i := n; i < len(acc); i++ {
		acc[i] += m.MRedLazy(a[i], sMont)
	}
}

// AddScalarVec computes out[i] = (a[i] + s) mod q for s < q.
func (m Modulus) AddScalarVec(out, a []uint64, s uint64) {
	checkLen(len(out), len(a), len(a))
	for i := range out {
		out[i] = addMod(a[i], s, m.Q)
	}
}

// ScalarMulVec computes out[i] = (a[i] * s) mod q with a Shoup constant.
func (m Modulus) ScalarMulVec(out, a []uint64, s uint64) {
	checkLen(len(out), len(a), len(a))
	c := NewMulConst(m, s)
	for i := range out {
		out[i] = c.Mul(a[i], m)
	}
}

// NegVec computes out[i] = (-a[i]) mod q.
func (m Modulus) NegVec(out, a []uint64) {
	checkLen(len(out), len(a), len(a))
	for i := range out {
		out[i] = m.Neg(a[i])
	}
}

// ReduceVec computes out[i] = a[i] mod q for arbitrary 64-bit inputs. It is
// the closing step of every lazy accumulation, so it gets the same unrolled
// bounds-check-free treatment as the MAC kernels.
func (m Modulus) ReduceVec(out, a []uint64) {
	checkLen(len(out), len(a), len(a))
	q := m.Q
	bhi := m.BarrettHi
	n := len(out) &^ 7
	for i := 0; i < n; i += 8 {
		x := (*[8]uint64)(a[i:])
		z := (*[8]uint64)(out[i:])
		z[0] = reduceBarrett(x[0], q, bhi)
		z[1] = reduceBarrett(x[1], q, bhi)
		z[2] = reduceBarrett(x[2], q, bhi)
		z[3] = reduceBarrett(x[3], q, bhi)
		z[4] = reduceBarrett(x[4], q, bhi)
		z[5] = reduceBarrett(x[5], q, bhi)
		z[6] = reduceBarrett(x[6], q, bhi)
		z[7] = reduceBarrett(x[7], q, bhi)
	}
	for i := n; i < len(out); i++ {
		out[i] = m.Reduce(a[i])
	}
}

func reduceBarrett(x, q, bhi uint64) uint64 {
	qhat, _ := bits.Mul64(x, bhi)
	r := x - qhat*q
	if r >= q {
		r -= q
	}
	return r
}

func checkLen(a, b, c int) {
	if a != b || a != c {
		panic(fmt.Sprintf("modarith: mismatched vector lengths %d/%d/%d", a, b, c))
	}
}

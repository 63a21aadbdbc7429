package ckks

import (
	"fmt"

	"fxhenn/internal/ring"
)

// SecretKey is a ternary RLWE secret, stored in the NTT domain over the full
// basis (all q_i plus the special prime) so it can act on keyswitching keys.
type SecretKey struct {
	Value *ring.Poly
}

// PublicKey is a fresh RLWE encryption of zero over the q-basis:
// B = -A·s + e, so B + A·s ≈ 0. Stored in NTT domain.
type PublicKey struct {
	B, A *ring.Poly
}

// SwitchingKey switches a ciphertext component from some source secret s'
// to the canonical secret s. It holds one (B_i, A_i) RLWE pair per RNS digit
// (the paper's KeySwitch keys, which it notes are "read-only and in large
// data volume" and therefore stored off-chip). All polys are NTT-domain over
// the digits' q-primes plus the special prime, which is always the last
// row: a generated key has L digits over the full basis, a level view
// (AtLevel) l digits over q_0..q_{l-1} and p.
type SwitchingKey struct {
	B, A []*ring.Poly
}

// Level returns the number of digits swk holds: it switches operands at
// levels up to Level().
func (swk *SwitchingKey) Level() int { return len(swk.B) }

// AtLevel returns a view of swk that switches operands at levels up to l:
// its first l digits, each holding rows q_0..q_{l-1} plus the
// special-prime row. A keyswitch at level k ≤ l reads only those rows, so
// the view's results are bit-identical to swk's. The rows are shared with
// swk, not copied; swk's other rows are garbage once swk is dropped. It
// panics if l is outside [1, Level()].
func (swk *SwitchingKey) AtLevel(l int) *SwitchingKey {
	if l < 1 || l > swk.Level() {
		panic(fmt.Sprintf("ckks: switching key view at level %d outside [1,%d]", l, swk.Level()))
	}
	v := &SwitchingKey{B: make([]*ring.Poly, l), A: make([]*ring.Poly, l)}
	for i := range l {
		v.B[i] = levelRows(swk.B[i], l)
		v.A[i] = levelRows(swk.A[i], l)
	}
	return v
}

// levelRows returns p's first l rows followed by its last, the
// special-prime row.
func levelRows(p *ring.Poly, l int) *ring.Poly {
	rows := make([][]uint64, l+1)
	copy(rows, p.Coeffs[:l])
	rows[l] = p.Coeffs[p.K()-1]
	return &ring.Poly{Coeffs: rows}
}

// check panics, naming both levels, unless swk switches operands at
// level: a view trimmed below an operand's level must fail by name, not
// by reading a row it does not hold.
func (swk *SwitchingKey) check(level int) {
	if level > swk.Level() {
		panic(fmt.Sprintf("ckks: switching key holds levels ≤ %d, operand at level %d", swk.Level(), level))
	}
}

// RelinearizationKey switches the degree-2 term s² back to s after CCmult.
type RelinearizationKey struct {
	SwitchingKey
}

// RotationKeys holds Galois keys indexed by automorphism exponent g.
type RotationKeys struct {
	Keys map[uint64]*SwitchingKey
}

// KeyGenerator samples key material deterministically.
type KeyGenerator struct {
	params  Parameters
	sampler *ring.Sampler
}

// NewKeyGenerator creates a generator with the given seed.
func NewKeyGenerator(params Parameters, seed int64) *KeyGenerator {
	return &KeyGenerator{params: params, sampler: ring.NewSampler(params.Ring(), seed)}
}

// GenSecretKey samples a ternary secret over the full basis.
func (kg *KeyGenerator) GenSecretKey() *SecretKey {
	r := kg.params.Ring()
	s := kg.sampler.Ternary(r.MaxLevel())
	r.NTT(s)
	return &SecretKey{Value: s}
}

// GenPublicKey produces an encryption-of-zero public key over the q-basis.
func (kg *KeyGenerator) GenPublicKey(sk *SecretKey) *PublicKey {
	r := kg.params.Ring()
	l := kg.params.L
	a := kg.sampler.Uniform(l)
	e := kg.sampler.Error(l)
	r.NTT(a)
	r.NTT(e)
	b := r.NewPoly(l)
	skQ := truncate(sk.Value, l)
	r.MulCoeffs(b, a, skQ) // b = a·s
	r.Neg(b, b)            // b = -a·s
	r.Add(b, b, e)         // b = -a·s + e
	return &PublicKey{B: b, A: a}
}

// genSwitchingKey builds a key that moves c·src to the canonical secret s:
// for each digit i, B_i = -A_i·s + e_i + p·W_i·src where W_i is the RNS
// reconstruction constant (W_i ≡ δ_ij mod q_j, so p·W_i contributes p mod
// q_i on row i and nothing elsewhere).
func (kg *KeyGenerator) genSwitchingKey(src *ring.Poly, sk *SecretKey) *SwitchingKey {
	r := kg.params.Ring()
	l := kg.params.L
	full := r.MaxLevel() // l q-primes + special
	swk := &SwitchingKey{
		B: make([]*ring.Poly, l),
		A: make([]*ring.Poly, l),
	}
	for i := 0; i < l; i++ {
		a := kg.sampler.Uniform(full)
		e := kg.sampler.Error(full)
		r.NTT(a)
		r.NTT(e)
		b := r.NewPoly(full)
		r.MulCoeffs(b, a, sk.Value)
		r.Neg(b, b)
		r.Add(b, b, e)
		// Add p·W_i·src: only row i carries the message, scaled by
		// p mod q_i (a scalar, applied in the NTT domain).
		pModQi := r.Mods[i].Reduce(kg.params.Special)
		row := make([]uint64, r.N)
		r.Mods[i].ScalarMulVec(row, src.Coeffs[i], pModQi)
		r.Mods[i].AddVec(b.Coeffs[i], b.Coeffs[i], row)
		// Store the digit rows in Montgomery form: the keyswitch MACs
		// then use REDC (MulMontAddLazyVec), and because REDC cancels the
		// 2^64 factor exactly, ciphertext results — and their digest pins
		// — are bit-identical to the Barrett formulation. The residues
		// stay canonical (< q), so serialization is unaffected.
		r.MForm(b, b)
		r.MForm(a, a)
		swk.B[i] = b
		swk.A[i] = a
	}
	return swk
}

// GenRelinearizationKey produces the key for s² -> s.
func (kg *KeyGenerator) GenRelinearizationKey(sk *SecretKey) *RelinearizationKey {
	r := kg.params.Ring()
	s2 := r.NewPoly(r.MaxLevel())
	r.MulCoeffs(s2, sk.Value, sk.Value)
	return &RelinearizationKey{*kg.genSwitchingKey(s2, sk)}
}

// GenRotationKeys produces Galois keys for the given slot rotations
// (positive = left rotation).
func (kg *KeyGenerator) GenRotationKeys(sk *SecretKey, rotations []int) *RotationKeys {
	rk := &RotationKeys{Keys: map[uint64]*SwitchingKey{}}
	for _, k := range rotations {
		g := kg.params.GaloisElementForRotation(k)
		if _, ok := rk.Keys[g]; ok {
			continue
		}
		rk.Keys[g] = kg.genGaloisKey(sk, g)
	}
	return rk
}

// genGaloisKey builds the switching key for σ_g(s) -> s.
func (kg *KeyGenerator) genGaloisKey(sk *SecretKey, g uint64) *SwitchingKey {
	r := kg.params.Ring()
	// σ_g acts on coefficient representation.
	sCoeff := sk.Value.Copy()
	r.INTT(sCoeff)
	sG := r.NewPoly(r.MaxLevel())
	r.Automorphism(sG, sCoeff, g)
	r.NTT(sG)
	return kg.genSwitchingKey(sG, sk)
}

// GaloisElementForRotation maps a slot rotation amount (positive = left) to
// its automorphism exponent 5^k mod 2N.
func (p Parameters) GaloisElementForRotation(k int) uint64 {
	slots := p.Slots()
	k = ((k % slots) + slots) % slots
	m := uint64(2 * p.N())
	g := uint64(1)
	for i := 0; i < k; i++ {
		g = (g * 5) % m
	}
	return g
}

// truncate returns a view of the first k rows of a poly.
func truncate(p *ring.Poly, k int) *ring.Poly {
	if p.K() < k {
		panic(fmt.Sprintf("ckks: cannot truncate %d rows to %d", p.K(), k))
	}
	return &ring.Poly{Coeffs: p.Coeffs[:k]}
}

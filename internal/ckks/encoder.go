package ckks

import (
	"fmt"
	"math"
	"math/big"
	"math/bits"
	"math/cmplx"

	"fxhenn/internal/ring"
)

// Encoder maps vectors of N/2 complex numbers to and from ring elements via
// the canonical embedding ("batching" in §II-A: each vector element occupies
// one ciphertext slot, and Rotate permutes the slots).
type Encoder struct {
	params   Parameters
	roots    []complex128 // 2N-th roots of unity, roots[j] = e^{iπj/N}
	rotGroup []int        // 5^i mod 2N — the slot orbit of the automorphism group
}

// NewEncoder precomputes the FFT tables for the given parameters.
func NewEncoder(params Parameters) *Encoder {
	n := params.N()
	m := 2 * n
	e := &Encoder{params: params}
	e.roots = make([]complex128, m+1)
	for j := 0; j <= m; j++ {
		angle := 2 * math.Pi * float64(j) / float64(m)
		e.roots[j] = cmplx.Exp(complex(0, angle))
	}
	slots := n / 2
	e.rotGroup = make([]int, slots)
	five := 1
	for i := 0; i < slots; i++ {
		e.rotGroup[i] = five
		five = (five * 5) % m
	}
	return e
}

// Plaintext is an encoded (and possibly NTT-transformed) message with its
// scale and level. Level counts active q_i primes, as for ciphertexts.
//
// Reuse contract: every Evaluator operation that consumes a plaintext
// (AddPlainNew, MulPlainNew, MulPlainSum) treats it as strictly
// read-only, so one Plaintext may be used as an operand any number of
// times — including by concurrent evaluator calls — and its serialized
// form never changes.
// The serve-path weight cache (hecnn.CompiledNetwork) encodes each weight
// vector once and shares the Plaintext across every request on this
// contract; TestPlaintextReuseContract pins it with digests.
//
// IsMontgomery marks a PCmult operand whose residues are held as x·2^64
// mod q (Encoder.MForm): MulPlainSum requires that form and MulPlainNew
// accepts either. Every other consumer — AddPlainNew, Encrypt, decoding,
// WriteTo — refuses it by name rather than read its residues as normal.
type Plaintext struct {
	Value        *ring.Poly
	Scale        float64
	IsNTT        bool
	IsMontgomery bool
}

// Level returns the number of active primes in the plaintext.
func (p *Plaintext) Level() int { return p.Value.K() }

// errMontgomery is the refusal of a consumer that reads normal-form
// residues only.
const errMontgomery = "plaintext is in Montgomery form, a PCmult operand only"

// checkNormalForm panics, naming the operation, when pt is in Montgomery
// form.
func checkNormalForm(pt *Plaintext, op string) {
	if pt.IsMontgomery {
		panic("ckks: " + op + ": " + errMontgomery)
	}
}

// MForm converts pt in place into Montgomery form, the operand form of
// MulPlainSum. REDC of a Montgomery-form operand is exact, so every
// product it enters is bit-identical to the normal form's.
func (e *Encoder) MForm(pt *Plaintext) {
	if pt.IsMontgomery {
		panic("ckks: MForm: " + errMontgomery + " already")
	}
	e.params.Ring().MForm(pt.Value, pt.Value)
	pt.IsMontgomery = true
}

// EncodeComplex encodes at most N/2 complex values at the given level and
// scale, returning an NTT-domain plaintext. Shorter inputs are zero-padded.
func (e *Encoder) EncodeComplex(values []complex128, level int, scale float64) *Plaintext {
	slots := e.params.Slots()
	if len(values) > slots {
		panic(fmt.Sprintf("ckks: %d values exceed %d slots", len(values), slots))
	}
	if level < 1 || level > e.params.L {
		panic(fmt.Sprintf("ckks: encode level %d out of range [1,%d]", level, e.params.L))
	}
	buf := make([]complex128, slots)
	copy(buf, values)
	e.specialInvFFT(buf)

	r := e.params.Ring()
	pt := r.NewPoly(level)
	bigTmp := new(big.Int)
	for j := 0; j < slots; j++ {
		setRounded(r, pt, j, real(buf[j])*scale, bigTmp)
		setRounded(r, pt, j+slots, imag(buf[j])*scale, bigTmp)
	}
	r.NTT(pt)
	return &Plaintext{Value: pt, Scale: scale, IsNTT: true}
}

// Encode encodes a real vector (the common case for CNN data).
func (e *Encoder) Encode(values []float64, level int, scale float64) *Plaintext {
	cv := make([]complex128, len(values))
	for i, v := range values {
		cv[i] = complex(v, 0)
	}
	return e.EncodeComplex(cv, level, scale)
}

// EncodeConst encodes the real constant c broadcast across every slot.
// A constant vector's canonical embedding is the constant polynomial
// round(c·Δ), whose NTT image is that value at every evaluation point, so
// the whole encode is one rounding plus a per-limb fill — no FFT and no
// NTT. This is the fast path behind CryptoNets-style batched evaluation,
// where every weight and bias is a broadcast scalar (hecnn.Plain.Const).
// It is also at least as accurate as Encode of the broadcast vector: the
// FFT round trip can only add rounding noise to the exact constant image.
func (e *Encoder) EncodeConst(c float64, level int, scale float64) *Plaintext {
	if level < 1 || level > e.params.L {
		panic(fmt.Sprintf("ckks: encode level %d out of range [1,%d]", level, e.params.L))
	}
	r := e.params.Ring()
	pt := r.NewPoly(level)
	rounded := math.Round(c * scale)
	if math.Abs(rounded) < math.MaxInt64/2 {
		iv := int64(rounded)
		for i := 0; i < level; i++ {
			q := r.Moduli[i]
			var v uint64
			if iv >= 0 {
				v = uint64(iv) % q
			} else {
				v = (q - uint64(-iv)%q) % q
			}
			row := pt.Coeffs[i]
			for j := range row {
				row[j] = v
			}
		}
		return &Plaintext{Value: pt, Scale: scale, IsNTT: true}
	}
	// Magnitudes beyond a word: reduce via big.Int per limb, as setRounded.
	bi := new(big.Int)
	new(big.Float).SetFloat64(rounded).Int(bi)
	for i := 0; i < level; i++ {
		q := new(big.Int).SetUint64(r.Moduli[i])
		rem := new(big.Int).Mod(bi, q)
		if rem.Sign() < 0 {
			rem.Add(rem, q)
		}
		v := rem.Uint64()
		row := pt.Coeffs[i]
		for j := range row {
			row[j] = v
		}
	}
	return &Plaintext{Value: pt, Scale: scale, IsNTT: true}
}

// setRounded writes round(v) into coefficient j, handling magnitudes beyond
// 64 bits via big.Int (large scales × large values can exceed a word).
func setRounded(r *ring.Ring, pt *ring.Poly, j int, v float64, tmp *big.Int) {
	rounded := math.Round(v)
	if math.Abs(rounded) < math.MaxInt64/2 {
		iv := int64(rounded)
		for i := 0; i < pt.K(); i++ {
			q := r.Moduli[i]
			if iv >= 0 {
				pt.Coeffs[i][j] = uint64(iv) % q
			} else {
				pt.Coeffs[i][j] = q - uint64(-iv)%q
				if pt.Coeffs[i][j] == q {
					pt.Coeffs[i][j] = 0
				}
			}
		}
		return
	}
	bf := new(big.Float).SetFloat64(rounded)
	bf.Int(tmp)
	r.SetCoeffBig(pt, j, tmp)
}

// DecodeComplex decodes a coefficient-domain-or-NTT plaintext back to its
// N/2 complex slot values.
func (e *Encoder) DecodeComplex(pt *Plaintext) []complex128 {
	checkNormalForm(pt, "decode")
	r := e.params.Ring()
	poly := pt.Value
	if pt.IsNTT {
		poly = pt.Value.Copy()
		r.INTT(poly)
	}
	slots := e.params.Slots()
	buf := make([]complex128, slots)
	for j := 0; j < slots; j++ {
		re := bigToFloat(r.ComposeCoeff(poly, j)) / pt.Scale
		im := bigToFloat(r.ComposeCoeff(poly, j+slots)) / pt.Scale
		buf[j] = complex(re, im)
	}
	e.specialFFT(buf)
	return buf
}

// Decode returns the real parts of the decoded slots.
func (e *Encoder) Decode(pt *Plaintext) []float64 {
	cv := e.DecodeComplex(pt)
	out := make([]float64, len(cv))
	for i, v := range cv {
		out[i] = real(v)
	}
	return out
}

func bigToFloat(v *big.Int) float64 {
	f, _ := new(big.Float).SetInt(v).Float64()
	return f
}

// specialInvFFT applies the inverse canonical-embedding FFT over the slot
// orbit (the HEAAN "SpecialInvFFT"): it maps slot values to the twisted
// Fourier coefficients that the ring automorphisms permute cyclically.
func (e *Encoder) specialInvFFT(values []complex128) {
	n := len(values)
	m := 2 * e.params.N()
	for size := n; size >= 2; size >>= 1 {
		for i := 0; i < n; i += size {
			lenh := size >> 1
			lenq := size << 2
			for j := 0; j < lenh; j++ {
				idx := (lenq - (e.rotGroup[j] % lenq)) * (m / lenq)
				u := values[i+j] + values[i+j+lenh]
				v := (values[i+j] - values[i+j+lenh]) * e.roots[idx]
				values[i+j] = u
				values[i+j+lenh] = v
			}
		}
	}
	inv := complex(1/float64(n), 0)
	for i := range values {
		values[i] *= inv
	}
	sliceBitReverse(values)
}

// specialFFT is the forward counterpart used by decoding.
func (e *Encoder) specialFFT(values []complex128) {
	n := len(values)
	m := 2 * e.params.N()
	sliceBitReverse(values)
	for size := 2; size <= n; size <<= 1 {
		for i := 0; i < n; i += size {
			lenh := size >> 1
			lenq := size << 2
			for j := 0; j < lenh; j++ {
				idx := (e.rotGroup[j] % lenq) * (m / lenq)
				u := values[i+j]
				v := values[i+j+lenh] * e.roots[idx]
				values[i+j] = u + v
				values[i+j+lenh] = u - v
			}
		}
	}
}

func sliceBitReverse(v []complex128) {
	n := len(v)
	logN := bits.TrailingZeros(uint(n))
	for i := 0; i < n; i++ {
		j := int(bits.Reverse32(uint32(i)) >> (32 - uint(logN)))
		if i < j {
			v[i], v[j] = v[j], v[i]
		}
	}
}

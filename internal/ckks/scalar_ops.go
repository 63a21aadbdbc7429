package ckks

import (
	"math"
	"math/big"
)

// Scalar and negation conveniences: the small operations downstream users
// reach for constantly when composing HE programs by hand (bias folds,
// polynomial evaluation, normalization). All are cheap elementwise passes.

// NegNew returns -ct.
func (ev *Evaluator) NegNew(ct *Ciphertext) *Ciphertext {
	r := ev.params.Ring()
	out := ev.copyCiphertext(ct)
	for _, p := range out.Value {
		r.Neg(p, p)
	}
	ev.record(OpCCadd, ct.Level())
	return out
}

// AddConstNew returns ct + c with the scalar broadcast across every slot.
// The constant is injected directly into the polynomial's constant
// coefficient at the ciphertext's scale — no plaintext encoding, no level
// or KeySwitch cost.
func (ev *Evaluator) AddConstNew(ct *Ciphertext, c float64) *Ciphertext {
	r := ev.params.Ring()
	out := ev.copyCiphertext(ct)
	level := ct.Level()

	// A constant vector's canonical embedding is the constant polynomial
	// c·Δ. Adding it in the NTT domain means adding c·Δ to every
	// evaluation point, i.e. to every NTT coefficient.
	scaled := new(big.Float).SetFloat64(c * ct.Scale)
	iv := new(big.Int)
	scaled.Int(iv)
	for i := 0; i < level; i++ {
		qi := new(big.Int).SetUint64(r.Moduli[i])
		rem := new(big.Int).Mod(iv, qi)
		if rem.Sign() < 0 {
			rem.Add(rem, qi)
		}
		v := rem.Uint64()
		row := out.Value[0].Coeffs[i]
		m := r.Mods[i]
		for j := range row {
			row[j] = m.Add(row[j], v)
		}
	}
	ev.record(OpPCadd, level)
	return out
}

// MulByConstNew returns ct · c for a real scalar, consuming one level (the
// scalar is carried at the parameter scale and a Rescale is expected to
// follow, exactly as for PCmult).
func (ev *Evaluator) MulByConstNew(ct *Ciphertext, c float64) *Ciphertext {
	r := ev.params.Ring()
	out := ev.newCiphertext(len(ct.Value), ct.Level())
	out.Scale = ct.Scale * ev.params.Scale

	scaled := math.Round(c * ev.params.Scale)
	for i, p := range ct.Value {
		for row := 0; row < p.K(); row++ {
			m := r.Mods[row]
			var v uint64
			if scaled >= 0 {
				v = m.Reduce(uint64(scaled))
			} else {
				v = m.Neg(m.Reduce(uint64(-scaled)))
			}
			m.ScalarMulVec(out.Value[i].Coeffs[row], p.Coeffs[row], v)
		}
	}
	ev.record(OpPCmult, ct.Level())
	return out
}

// SubPlainNew returns ct − pt.
func (ev *Evaluator) SubPlainNew(ct *Ciphertext, pt *Plaintext) *Ciphertext {
	level := ct.Level()
	if pt.Level() < level {
		panic("ckks: PCsub plaintext level below ciphertext level")
	}
	checkScales(ct.Scale, pt.Scale)
	r := ev.params.Ring()
	out := ev.copyCiphertext(ct)
	r.Sub(out.Value[0], out.Value[0], truncate(pt.Value, level))
	ev.record(OpPCadd, level)
	return out
}

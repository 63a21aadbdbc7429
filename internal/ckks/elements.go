package ckks

import (
	"fmt"

	"fxhenn/internal/ring"
)

// Ciphertext is an RLWE ciphertext (c0, c1) — or (c0, c1, c2) transiently
// after CCmult before relinearization — kept in the NTT domain. Its Level is
// the number of active q_i primes; Rescale consumes one level, exactly the
// RNS-polynomial-count semantics the paper's inter-layer module reuse
// (§V-C) is built around.
type Ciphertext struct {
	Value []*ring.Poly
	Scale float64
}

// newCiphertextFrom returns a zero ciphertext of the given degree+1
// parts at the given level, its rows taken from rows
// (ring.Ring.NewPolyFrom).
func newCiphertextFrom(params Parameters, rows *ring.Rows, parts, level int) *Ciphertext {
	if level < 1 || level > params.L {
		panic(fmt.Sprintf("ckks: ciphertext level %d out of range [1,%d]", level, params.L))
	}
	ct := &Ciphertext{Value: make([]*ring.Poly, parts), Scale: params.Scale}
	for i := range ct.Value {
		ct.Value[i] = params.Ring().NewPolyFrom(rows, level)
	}
	return ct
}

// Level returns the number of active primes.
func (ct *Ciphertext) Level() int { return ct.Value[0].K() }

// Degree returns the ciphertext degree (1 for a normal (c0,c1) pair).
func (ct *Ciphertext) Degree() int { return len(ct.Value) - 1 }

// Copy deep-copies the ciphertext.
func (ct *Ciphertext) Copy() *Ciphertext {
	out := &Ciphertext{Scale: ct.Scale}
	for _, p := range ct.Value {
		out.Value = append(out.Value, p.Copy())
	}
	return out
}

// DropLevel removes the last n primes from every part (modulus reduction
// without rounding; the scale is unchanged).
func (ct *Ciphertext) DropLevel(n int) {
	for _, p := range ct.Value {
		p.DropLast(n)
	}
}

// Encryptor encrypts plaintexts under a public key. It is not safe for
// concurrent use: its sampler and its rows are its own.
type Encryptor struct {
	params  Parameters
	pk      *PublicKey
	sampler *ring.Sampler
	// rows serves the three polynomials each Encrypt samples and drops.
	rows ring.Rows
}

// NewEncryptor creates a deterministic encryptor.
func NewEncryptor(params Parameters, pk *PublicKey, seed int64) *Encryptor {
	return &Encryptor{params: params, pk: pk, sampler: ring.NewSampler(params.Ring(), seed)}
}

// Encrypt produces a fresh ciphertext of pt at pt's level:
// (c0, c1) = (B·u + e0 + m, A·u + e1).
func (enc *Encryptor) Encrypt(pt *Plaintext) *Ciphertext { return enc.EncryptFrom(nil, pt) }

// EncryptFrom is Encrypt with the ciphertext's rows taken from rows
// (ring.Ring.NewPolyFrom); the result is bit-identical.
func (enc *Encryptor) EncryptFrom(rows *ring.Rows, pt *Plaintext) *Ciphertext {
	if !pt.IsNTT {
		panic("ckks: Encrypt requires an NTT-domain plaintext")
	}
	checkNormalForm(pt, "Encrypt")
	r := enc.params.Ring()
	level := pt.Level()

	u := enc.sampler.TernaryFrom(&enc.rows, level)
	e0 := enc.sampler.ErrorFrom(&enc.rows, level)
	e1 := enc.sampler.ErrorFrom(&enc.rows, level)
	r.NTT(u)
	r.NTT(e0)
	r.NTT(e1)

	ct := newCiphertextFrom(enc.params, rows, 2, level)
	ct.Scale = pt.Scale
	b := truncate(enc.pk.B, level)
	a := truncate(enc.pk.A, level)
	r.MulCoeffs(ct.Value[0], b, u)
	r.Add(ct.Value[0], ct.Value[0], e0)
	r.Add(ct.Value[0], ct.Value[0], pt.Value)
	r.MulCoeffs(ct.Value[1], a, u)
	r.Add(ct.Value[1], ct.Value[1], e1)
	enc.rows.Recycle(u)
	enc.rows.Recycle(e0)
	enc.rows.Recycle(e1)
	return ct
}

// Decryptor recovers plaintexts with the secret key.
type Decryptor struct {
	params Parameters
	sk     *SecretKey
}

// NewDecryptor creates a decryptor.
func NewDecryptor(params Parameters, sk *SecretKey) *Decryptor {
	return &Decryptor{params: params, sk: sk}
}

// Decrypt computes m = Σ_i c_i · s^i, returning an NTT-domain plaintext at
// the ciphertext's level and scale.
func (dec *Decryptor) Decrypt(ct *Ciphertext) *Plaintext {
	r := dec.params.Ring()
	level := ct.Level()
	s := truncate(dec.sk.Value, level)

	acc := ct.Value[len(ct.Value)-1].Copy()
	for i := len(ct.Value) - 2; i >= 0; i-- {
		r.MulCoeffs(acc, acc, s)
		r.Add(acc, acc, ct.Value[i])
	}
	return &Plaintext{Value: acc, Scale: ct.Scale, IsNTT: true}
}

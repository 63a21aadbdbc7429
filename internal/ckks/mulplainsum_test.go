package ckks

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"fxhenn/internal/primes"
	"fxhenn/internal/ring"
)

// randomChain returns terms ciphertexts and normal-form plaintexts of
// uniformly random residues at params' top level, every scale 1, and a
// random accumulator — operands that need not decrypt to anything, so
// every accumulator word is exercised near its bound.
func randomChain(params Parameters, terms int, seed int64) (acc *Ciphertext, cts []*Ciphertext, pts []*Plaintext) {
	rng := rand.New(rand.NewSource(seed))
	r := params.Ring()
	level := params.MaxLevel()
	fill := func(rows [][]uint64) {
		for j, row := range rows {
			for n := range row {
				row[n] = rng.Uint64() % r.Moduli[j]
			}
		}
	}
	ct := func() *Ciphertext {
		c := NewCiphertext(params, 2, level)
		c.Scale = 1
		for _, p := range c.Value {
			fill(p.Coeffs)
		}
		return c
	}
	acc = ct()
	for range terms {
		cts = append(cts, ct())
		pt := &Plaintext{Value: r.NewPoly(level), Scale: 1, IsNTT: true}
		fill(pt.Value.Coeffs)
		pts = append(pts, pt)
	}
	return acc, cts, pts
}

// montCopies returns Montgomery-form copies of pts.
func montCopies(enc *Encoder, pts []*Plaintext) []*Plaintext {
	out := make([]*Plaintext, len(pts))
	for i, pt := range pts {
		out[i] = &Plaintext{Value: pt.Value.Copy(), Scale: pt.Scale, IsNTT: pt.IsNTT}
		enc.MForm(out[i])
	}
	return out
}

// TestMulPlainSumLazyBound: on a ring of ~61-bit primes a lazy
// accumulator absorbs only four terms before it could overflow, so a
// 24-term chain of random residues is bit-identical to the eager
// MulPlainNew + Add pairs only if MulPlainSum reduces in time.
func TestMulPlainSumLazyBound(t *testing.T) {
	// NewParameters keeps the special prime wider than the q_i, which
	// caps the q_i at 60 bits; no keyswitch runs here, so every prime
	// may be 61 bits.
	qs := primes.GenerateNTTPrimes(61, 4, 3)
	params := Parameters{LogN: 4, L: 2, QBits: 61, PBits: 61, Scale: 1,
		Moduli: qs[:2], Special: qs[2], ring: ring.NewRing(16, qs)}
	for j, m := range params.Ring().Mods[:params.L] {
		if m.MaxLazyAdds() != 4 {
			t.Fatalf("modulus %d (%d) absorbs %d lazy terms, want 4", j, m.Q, m.MaxLazyAdds())
		}
	}
	const terms = 24
	acc, cts, pts := randomChain(params, terms, 5)
	ev := NewEvaluator(params, nil, nil)
	want := acc.Copy()
	for i := range cts {
		ev.Add(want, want, ev.MulPlainNew(cts[i], pts[i]))
	}
	ev.MulPlainSum(acc, cts, montCopies(NewEncoder(params), pts))
	if acc.Digest() != want.Digest() {
		t.Fatalf("%d-term MulPlainSum differs from the eager pairs", terms)
	}
}

// TestMulPlainSumAllocatesNothing: with no pool attached and no trace,
// a chain allocates nothing — no views, no closures, no scratch.
func TestMulPlainSumAllocatesNothing(t *testing.T) {
	params := paramsTest()
	acc, cts, pts := randomChain(params, 6, 6)
	pts = montCopies(NewEncoder(params), pts)
	ev := NewEvaluator(params, nil, nil)
	if n := testing.AllocsPerRun(20, func() { ev.MulPlainSum(acc, cts, pts) }); n != 0 {
		t.Fatalf("MulPlainSum allocated %.1f times per call, want 0", n)
	}
}

// TestMontgomeryOperandForm: a Montgomery-form plaintext is a PCmult
// operand only. Every consumer that reads normal residues refuses it by
// name, and MulPlainSum refuses the normal form.
func TestMontgomeryOperandForm(t *testing.T) {
	tc := newTestContext(t, nil)
	level := tc.params.MaxLevel()
	ct := tc.encryptVec([]float64{0.5}, level)
	mont := tc.enc.EncodeConst(0.25, level, tc.params.Scale)
	tc.enc.MForm(mont)
	normal := tc.enc.EncodeConst(0.25, level, tc.params.Scale)

	refuses := func(what string, f func(), form string) {
		t.Helper()
		defer func() {
			r := recover()
			msg, _ := r.(string)
			if !strings.Contains(msg, form) {
				t.Errorf("%s: recovered %v, want a refusal naming the %s form", what, r, form)
			}
		}()
		f()
	}
	refuses("AddPlainNew", func() { tc.eval.AddPlainNew(ct, mont) }, "Montgomery")
	refuses("Decode", func() { tc.enc.Decode(mont) }, "Montgomery")
	refuses("Encrypt", func() { tc.encr.Encrypt(mont) }, "Montgomery")
	refuses("MForm twice", func() { tc.enc.MForm(mont) }, "Montgomery")
	refuses("MulPlainSum", func() {
		tc.eval.MulPlainSum(tc.eval.MulPlainNew(ct, mont), []*Ciphertext{ct}, []*Plaintext{normal})
	}, "normal")
	if _, err := mont.WriteTo(&bytes.Buffer{}); err == nil || !strings.Contains(err.Error(), "Montgomery") {
		t.Errorf("WriteTo: error %v, want one naming the Montgomery form", err)
	}
	if tc.eval.MulPlainNew(ct, mont).Digest() != tc.eval.MulPlainNew(ct, normal).Digest() {
		t.Error("MulPlainNew of the two forms of one operand differs")
	}
}

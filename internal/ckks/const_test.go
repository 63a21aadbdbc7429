package ckks

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"fxhenn/internal/parallel"
	"fxhenn/internal/primes"
	"fxhenn/internal/ring"
)

// rowsOf returns pt with its residues held as rows: the constant form's
// words expanded to every residue of their limb, the operand the constant
// form stands for.
func rowsOf(params Parameters, pt *Plaintext) *Plaintext {
	out := &Plaintext{Value: params.Ring().NewPoly(pt.Level()), Scale: pt.Scale, IsNTT: pt.IsNTT, IsMontgomery: pt.IsMontgomery}
	pt.copyInto(out.Value)
	return out
}

// constValues are broadcast scalars on EncodeConst's word path and, last,
// one whose scaled magnitude takes its big-integer path.
var constValues = []float64{0.37, -2.25, 0, math.Exp2(40)}

// checkConstMatchesRows fails unless every evaluator op that takes a
// constant — MulPlainNew in both forms, AddPlainNew, and MulPlainSum
// chains of constants alone and mixed with row operands — gives the bits
// the same op gives on the constant's rows, with the plaintext at every
// level and the ciphertext at every level at or below it.
func checkConstMatchesRows(t *testing.T, params Parameters) {
	t.Helper()
	enc := NewEncoder(params)
	ev := NewEvaluator(params, nil, nil)
	rng := rand.New(rand.NewSource(41))
	scale := params.Scale
	for _, c := range constValues {
		for ptLevel := 1; ptLevel <= params.L; ptLevel++ {
			normal := enc.EncodeConst(c, ptLevel, scale)
			if normal.Value != nil || len(normal.Const) != ptLevel {
				t.Fatalf("EncodeConst(%g) at level %d is not in constant form", c, ptLevel)
			}
			mont := enc.EncodeConst(c, ptLevel, scale)
			enc.MForm(mont)
			normalRows, montRows := rowsOf(params, normal), rowsOf(params, mont)
			wantMont := rowsOf(params, normal)
			enc.MForm(wantMont)
			if !slices.EqualFunc(montRows.Value.Coeffs, wantMont.Value.Coeffs, slices.Equal[[]uint64]) {
				t.Fatalf("c=%g level %d: MForm of the constant differs from MForm of its rows", c, ptLevel)
			}
			other := enc.Encode(randVec(params.Slots(), 1, rng), ptLevel, scale)
			enc.MForm(other)
			for level := 1; level <= ptLevel; level++ {
				what := func(op string) string {
					return fmt.Sprintf("%s of the constant %g at plaintext level %d, ciphertext level %d differs from the rows'", op, c, ptLevel, level)
				}
				ct := randomCiphertext(params, level, scale, rng)
				want := ev.MulPlainNew(ct, normalRows).Digest()
				for _, pt := range []*Plaintext{normal, mont, montRows} {
					if got := ev.MulPlainNew(ct, pt).Digest(); got != want {
						t.Fatalf("%s (Montgomery %v)", what("MulPlainNew"), pt.IsMontgomery)
					}
				}
				if ev.AddPlainNew(ct, normal).Digest() != ev.AddPlainNew(ct, normalRows).Digest() {
					t.Fatal(what("AddPlainNew"))
				}
				acc := randomCiphertext(params, level, scale*scale, rng)
				chain := func(pts ...*Plaintext) string {
					a := acc.Copy()
					cts := make([]*Ciphertext, len(pts))
					for i := range cts {
						cts[i] = ct
					}
					ev.MulPlainSum(a, cts, pts)
					return a.Digest()
				}
				if chain(mont, mont) != chain(montRows, montRows) {
					t.Fatal(what("a constant MulPlainSum chain"))
				}
				if chain(mont, other, montRows, mont) != chain(montRows, other, montRows, montRows) {
					t.Fatal(what("a mixed MulPlainSum chain"))
				}
			}
		}
	}
}

// TestConstFormMatchesRows: on the test ring, with no pool.
func TestConstFormMatchesRows(t *testing.T) {
	checkConstMatchesRows(t, paramsTest())
}

// TestConstFormMatchesRowsOnPool: at N = 8192 MulPlainSum's three rows
// fan out to a pool as wide as GOMAXPROCS, and the constant form still
// gives the rows' bits.
func TestConstFormMatchesRowsOnPool(t *testing.T) {
	params := NewParameters(13, 30, 3, 45)
	params.AttachPool(parallel.New(0))
	defer params.AttachPool(nil)
	checkConstMatchesRows(t, params)
}

// TestMulPlainSumConstLazyBound is TestMulPlainSumLazyBound with
// constant terms, alone and alternating with rows: on ~61-bit primes a
// lazy accumulator absorbs four terms, so a 24-term chain matches the
// eager MulPlainNew + Add pairs only if the scalar MAC shares the rows'
// lazy budget.
func TestMulPlainSumConstLazyBound(t *testing.T) {
	qs := primes.GenerateNTTPrimes(61, 4, 3)
	params := Parameters{LogN: 4, L: 2, QBits: 61, PBits: 61, Scale: 1,
		Moduli: qs[:2], Special: qs[2], ring: ring.NewRing(16, qs)}
	const terms = 24
	acc, cts, pts := randomChain(params, terms, 7)
	rng := rand.New(rand.NewSource(8))
	for i := range pts {
		if i%3 == 2 {
			continue // every third term stays rows
		}
		words := make([]uint64, params.L)
		for j := range words {
			words[j] = rng.Uint64() % qs[j]
		}
		pts[i] = &Plaintext{Const: words, Scale: 1, IsNTT: true}
	}
	ev := NewEvaluator(params, nil, nil)
	want := acc.Copy()
	for i := range cts {
		ev.Add(want, want, ev.MulPlainNew(cts[i], pts[i]))
	}
	enc := NewEncoder(params)
	mont := make([]*Plaintext, len(pts))
	for i, pt := range pts {
		mont[i] = &Plaintext{Const: slices.Clone(pt.Const), Scale: 1, IsNTT: true}
		if pt.Const == nil {
			mont[i] = &Plaintext{Value: pt.Value.Copy(), Scale: 1, IsNTT: true}
		}
		enc.MForm(mont[i])
	}
	ev.MulPlainSum(acc, cts, mont)
	if acc.Digest() != want.Digest() {
		t.Fatalf("%d-term MulPlainSum of constants and rows differs from the eager pairs", terms)
	}
}

// TestEncryptConstMatchesRows: Encrypt reads a constant as its rows —
// same encryptor seed, same ciphertext bits.
func TestEncryptConstMatchesRows(t *testing.T) {
	tc := newTestContext(t, nil)
	for _, c := range constValues[:2] {
		pt := tc.enc.EncodeConst(c, tc.params.MaxLevel(), tc.params.Scale)
		got := NewEncryptor(tc.params, tc.pk, 9).Encrypt(pt).Digest()
		want := NewEncryptor(tc.params, tc.pk, 9).Encrypt(rowsOf(tc.params, pt)).Digest()
		if got != want {
			t.Fatalf("Encrypt of the constant %g differs from Encrypt of its rows", c)
		}
	}
}

// TestDecodeConstMatchesRows: decoding reads a constant as its rows, to
// the same slot values bit for bit, on both EncodeConst paths.
func TestDecodeConstMatchesRows(t *testing.T) {
	params := paramsTest()
	enc := NewEncoder(params)
	for _, c := range constValues {
		for level := 1; level <= params.L; level++ {
			pt := enc.EncodeConst(c, level, params.Scale)
			if !slices.Equal(enc.Decode(pt), enc.Decode(rowsOf(params, pt))) {
				t.Fatalf("Decode of the constant %g at level %d differs from Decode of its rows", c, level)
			}
		}
	}
}

// TestConstFormWriteToRefused: a constant has no wire form, so WriteTo
// refuses it by name, and Digest, which hashes WriteTo, panics.
func TestConstFormWriteToRefused(t *testing.T) {
	enc := NewEncoder(paramsTest())
	pt := enc.EncodeConst(0.5, 2, enc.params.Scale)
	if _, err := pt.WriteTo(&strings.Builder{}); err == nil || !strings.Contains(err.Error(), "constant form") {
		t.Fatalf("WriteTo of a constant: error %v, want one naming the constant form", err)
	}
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("Digest of a constant did not panic")
		}
	}()
	pt.Digest()
}

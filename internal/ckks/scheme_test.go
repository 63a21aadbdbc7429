package ckks

import (
	"math"
	"math/rand"
	"testing"
)

// paramsTest returns a small, fast parameter set for unit tests.
func paramsTest() Parameters { return NewParameters(8, 30, 5, 45) }

// testContext bundles a full CKKS instantiation for scheme-level tests.
type testContext struct {
	params Parameters
	enc    *Encoder
	kg     *KeyGenerator
	sk     *SecretKey
	pk     *PublicKey
	rlk    *RelinearizationKey
	rtk    *RotationKeys
	encr   *Encryptor
	decr   *Decryptor
	eval   *Evaluator
}

func newTestContext(t testing.TB, rotations []int) *testContext {
	t.Helper()
	params := paramsTest()
	kg := NewKeyGenerator(params, 1000)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	rlk := kg.GenRelinearizationKey(sk)
	var rtk *RotationKeys
	if rotations != nil {
		rtk = kg.GenRotationKeys(sk, rotations)
	}
	eval := NewEvaluator(params, rlk, rtk)
	return &testContext{
		params: params,
		enc:    NewEncoder(params),
		kg:     kg, sk: sk, pk: pk, rlk: rlk, rtk: rtk,
		encr: NewEncryptor(params, pk, 2000),
		decr: NewDecryptor(params, sk),
		eval: eval,
	}
}

func (tc *testContext) encryptVec(v []float64, level int) *Ciphertext {
	return tc.encr.Encrypt(tc.enc.Encode(v, level, tc.params.Scale))
}

func (tc *testContext) decryptVec(ct *Ciphertext) []float64 {
	return tc.enc.Decode(tc.decr.Decrypt(ct))
}

func requireClose(t *testing.T, got, want []float64, tol float64, what string) {
	t.Helper()
	for i := range want {
		if math.Abs(got[i]-want[i]) > tol {
			t.Fatalf("%s: slot %d: got %g want %g (tol %g)", what, i, got[i], want[i], tol)
		}
	}
}

func TestEncryptDecrypt(t *testing.T) {
	tc := newTestContext(t, nil)
	rng := rand.New(rand.NewSource(10))
	for _, level := range []int{2, tc.params.L} {
		v := randVec(tc.params.Slots(), 10, rng)
		ct := tc.encryptVec(v, level)
		if ct.Level() != level || ct.Degree() != 1 {
			t.Fatalf("fresh ciphertext shape: level %d degree %d", ct.Level(), ct.Degree())
		}
		got := tc.decryptVec(ct)
		requireClose(t, got[:len(v)], v, 1e-4, "enc/dec")
	}
}

func TestHomomorphicAddSub(t *testing.T) {
	tc := newTestContext(t, nil)
	rng := rand.New(rand.NewSource(11))
	a := randVec(tc.params.Slots(), 10, rng)
	b := randVec(tc.params.Slots(), 10, rng)
	ca := tc.encryptVec(a, 3)
	cb := tc.encryptVec(b, 3)

	sum := tc.eval.AddNew(ca, cb)
	want := make([]float64, len(a))
	for i := range a {
		want[i] = a[i] + b[i]
	}
	requireClose(t, tc.decryptVec(sum)[:len(a)], want, 1e-4, "CCadd")
}

func TestAddAlignsMismatchedLevels(t *testing.T) {
	tc := newTestContext(t, nil)
	rng := rand.New(rand.NewSource(12))
	a := randVec(8, 5, rng)
	b := randVec(8, 5, rng)
	ca := tc.encryptVec(a, 4)
	cb := tc.encryptVec(b, 2)
	sum := tc.eval.AddNew(ca, cb)
	if sum.Level() != 2 {
		t.Fatalf("sum level %d, want 2", sum.Level())
	}
	got := tc.decryptVec(sum)
	for i := range a {
		if math.Abs(got[i]-(a[i]+b[i])) > 1e-4 {
			t.Fatalf("slot %d mismatch", i)
		}
	}
}

// TestDestinationFormsMatchNew: each destination form writes exactly what
// its allocating form (or, for MulPlainSum, MulPlainNew then AddNew per
// term) returns — digest, level, scale — whichever operand it writes
// into and whatever the operands' levels.
func TestDestinationFormsMatchNew(t *testing.T) {
	tc := newTestContext(t, nil)
	rng := rand.New(rand.NewSource(13))
	hi := tc.encryptVec(randVec(8, 5, rng), 4)
	lo := tc.encryptVec(randVec(8, 5, rng), 2)
	pt := tc.enc.Encode(randVec(8, 1, rng), 4, tc.params.Scale)
	acc := tc.eval.MulPlainNew(hi, pt)
	ptMont := tc.enc.Encode(randVec(8, 1, rng), 4, tc.params.Scale)
	tc.enc.MForm(ptMont)
	three := tc.enc.EncodeConst(3, 4, 1) // at scale 1, so ct·three keeps ct's scale
	tc.enc.MForm(three)
	mulPlainSum := func(cts ...*Ciphertext) *Ciphertext {
		a, pts := acc.Copy(), make([]*Plaintext, len(cts))
		for i := range pts {
			pts[i] = ptMont
		}
		tc.eval.MulPlainSum(a, cts, pts)
		return a
	}

	for _, c := range []struct {
		name           string
		alloc, inPlace func() *Ciphertext
	}{
		{"Add into a", func() *Ciphertext { return tc.eval.AddNew(hi, lo) },
			func() *Ciphertext { a := hi.Copy(); tc.eval.Add(a, a, lo); return a }},
		{"Add into higher b", func() *Ciphertext { return tc.eval.AddNew(lo, hi) },
			func() *Ciphertext { b := hi.Copy(); tc.eval.Add(b, lo, b); return b }},
		{"Rescale", func() *Ciphertext { return tc.eval.RescaleNew(hi) },
			func() *Ciphertext { a := hi.Copy(); tc.eval.Rescale(a); return a }},
		{"MulPlainSum", func() *Ciphertext { return tc.eval.AddNew(acc, tc.eval.MulPlainNew(lo, ptMont)) },
			func() *Ciphertext { return mulPlainSum(lo) }},
		{"MulPlainSum chain", func() *Ciphertext {
			s := tc.eval.AddNew(acc, tc.eval.MulPlainNew(hi, ptMont))
			s = tc.eval.AddNew(s, tc.eval.MulPlainNew(lo, ptMont))
			return tc.eval.AddNew(s, tc.eval.MulPlainNew(hi, ptMont))
		}, func() *Ciphertext { return mulPlainSum(hi, lo, hi) }},
		{"MulPlainSum into its own term", func() *Ciphertext {
			return tc.eval.AddNew(hi, tc.eval.MulPlainNew(hi, three))
		}, func() *Ciphertext {
			a := hi.Copy()
			tc.eval.MulPlainSum(a, []*Ciphertext{a}, []*Plaintext{three})
			return a
		}},
	} {
		want := c.alloc()
		got := c.inPlace()
		if got.Digest() != want.Digest() || got.Scale != want.Scale || got.Level() != want.Level() {
			t.Errorf("%s: level %d scale %g differs from the allocating form's level %d scale %g, or its digest does",
				c.name, got.Level(), got.Scale, want.Level(), want.Scale)
		}
	}
}

func TestAddPlain(t *testing.T) {
	tc := newTestContext(t, nil)
	rng := rand.New(rand.NewSource(13))
	a := randVec(16, 5, rng)
	b := randVec(16, 5, rng)
	ca := tc.encryptVec(a, 3)
	pb := tc.enc.Encode(b, 3, tc.params.Scale)
	sum := tc.eval.AddPlainNew(ca, pb)
	got := tc.decryptVec(sum)
	for i := range a {
		if math.Abs(got[i]-(a[i]+b[i])) > 1e-4 {
			t.Fatalf("PCadd slot %d mismatch", i)
		}
	}
}

func TestMulPlainRescale(t *testing.T) {
	tc := newTestContext(t, nil)
	rng := rand.New(rand.NewSource(14))
	a := randVec(tc.params.Slots(), 4, rng)
	w := randVec(tc.params.Slots(), 4, rng)
	ct := tc.encryptVec(a, 4)
	pw := tc.enc.Encode(w, 4, tc.params.Scale)

	prod := tc.eval.MulPlainNew(ct, pw)
	if prod.Level() != 4 {
		t.Fatalf("PCmult level %d", prod.Level())
	}
	wantScale := tc.params.Scale * tc.params.Scale
	if math.Abs(prod.Scale-wantScale) > wantScale/1e6 {
		t.Fatalf("PCmult scale %g want %g", prod.Scale, wantScale)
	}

	res := tc.eval.RescaleNew(prod)
	if res.Level() != 3 {
		t.Fatalf("rescaled level %d, want 3", res.Level())
	}
	// Scale after rescale ≈ scale²/q_3 ≈ scale.
	if res.Scale < tc.params.Scale/2 || res.Scale > tc.params.Scale*2 {
		t.Fatalf("rescaled scale %g far from %g", res.Scale, tc.params.Scale)
	}
	want := make([]float64, len(a))
	for i := range a {
		want[i] = a[i] * w[i]
	}
	requireClose(t, tc.decryptVec(res)[:len(a)], want, 1e-3, "PCmult+Rescale")
}

func TestMulCiphertextRelinearize(t *testing.T) {
	tc := newTestContext(t, nil)
	rng := rand.New(rand.NewSource(15))
	a := randVec(tc.params.Slots(), 3, rng)
	b := randVec(tc.params.Slots(), 3, rng)
	ca := tc.encryptVec(a, 4)
	cb := tc.encryptVec(b, 4)

	prod := tc.eval.MulNew(ca, cb)
	if prod.Degree() != 1 {
		t.Fatalf("relinearized degree %d", prod.Degree())
	}
	res := tc.eval.RescaleNew(prod)
	want := make([]float64, len(a))
	for i := range a {
		want[i] = a[i] * b[i]
	}
	requireClose(t, tc.decryptVec(res)[:len(a)], want, 1e-2, "CCmult+Relin+Rescale")
}

// TestSquareActivationChain mimics an HE-CNN activation: square twice with
// rescales, the deepest multiplicative pattern in the paper's networks.
func TestSquareActivationChain(t *testing.T) {
	tc := newTestContext(t, nil)
	rng := rand.New(rand.NewSource(16))
	a := randVec(tc.params.Slots(), 1.5, rng)
	ct := tc.encryptVec(a, tc.params.L)

	sq := tc.eval.RescaleNew(tc.eval.MulNew(ct, ct))
	sq2 := tc.eval.RescaleNew(tc.eval.MulNew(sq, sq))
	if sq2.Level() != tc.params.L-2 {
		t.Fatalf("level after two squares: %d", sq2.Level())
	}
	want := make([]float64, len(a))
	for i := range a {
		want[i] = math.Pow(a[i], 4)
	}
	requireClose(t, tc.decryptVec(sq2)[:len(a)], want, 1e-1, "square chain")
}

func TestRotation(t *testing.T) {
	rots := []int{1, 3, 5, 17}
	tc := newTestContext(t, rots)
	rng := rand.New(rand.NewSource(17))
	v := randVec(tc.params.Slots(), 5, rng)
	ct := tc.encryptVec(v, 3)
	slots := tc.params.Slots()
	for _, k := range rots {
		rot := tc.eval.RotateNew(ct, k)
		got := tc.decryptVec(rot)
		for i := 0; i < slots; i++ {
			want := v[(i+k)%slots]
			if math.Abs(got[i]-want) > 1e-2 {
				t.Fatalf("rotate %d slot %d: got %g want %g", k, i, got[i], want)
			}
		}
	}
	// Rotation by zero is a copy without keyswitching.
	r0 := tc.eval.RotateNew(ct, 0)
	requireClose(t, tc.decryptVec(r0)[:8], v[:8], 1e-4, "rotate 0")
}

// TestRotateAndSum computes a slot inner product via log-rotations — the KS
// layer pattern of §V-A (Fig. 3).
func TestRotateAndSum(t *testing.T) {
	tc := newTestContext(t, []int{1, 2, 4, 8, 16, 32, 64})
	rng := rand.New(rand.NewSource(19))
	slots := tc.params.Slots()
	v := randVec(slots, 1, rng)
	ct := tc.encryptVec(v, 3)
	acc := ct
	for k := 1; k < slots; k <<= 1 {
		acc = tc.eval.AddNew(acc, tc.eval.RotateNew(acc, k))
	}
	want := 0.0
	for _, x := range v {
		want += x
	}
	got := tc.decryptVec(acc)
	if math.Abs(got[0]-want) > 0.5 {
		t.Fatalf("rotate-and-sum: got %g want %g", got[0], want)
	}
}

func TestDropLevel(t *testing.T) {
	tc := newTestContext(t, nil)
	rng := rand.New(rand.NewSource(20))
	v := randVec(16, 5, rng)
	ct := tc.encryptVec(v, 4)
	ct.DropLevel(2)
	if ct.Level() != 2 {
		t.Fatalf("level %d after drop", ct.Level())
	}
	requireClose(t, tc.decryptVec(ct)[:len(v)], v, 1e-4, "drop level")
}

func TestEvaluatorValidation(t *testing.T) {
	tc := newTestContext(t, nil)
	v := randVec(8, 1, nil2())
	ct := tc.encryptVec(v, 2)

	// Rescale below level 2 must panic.
	low := tc.encryptVec(v, 2)
	r1 := tc.eval.RescaleNew(tc.eval.MulPlainNew(low, tc.enc.Encode(v, 2, tc.params.Scale)))
	func() {
		defer func() {
			if recover() == nil {
				t.Error("rescale at level 1 did not panic")
			}
		}()
		tc.eval.RescaleNew(r1)
	}()

	// Rotation without keys must panic.
	evNoKeys := NewEvaluator(tc.params, nil, nil)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("rotation without keys did not panic")
			}
		}()
		evNoKeys.RotateNew(ct, 1)
	}()

	// Relinearize on degree-1 ciphertext must panic.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("relinearize degree-1 did not panic")
			}
		}()
		tc.eval.RelinearizeNew(ct)
	}()

	// Scale mismatch in CCadd must panic.
	other := tc.encryptVec(v, 2)
	other.Scale *= 2
	func() {
		defer func() {
			if recover() == nil {
				t.Error("scale mismatch did not panic")
			}
		}()
		tc.eval.AddNew(ct, other)
	}()
}

func nil2() *rand.Rand { return rand.New(rand.NewSource(99)) }

// TestNoiseBudgetAcrossDepth runs the paper's depth-5 pattern end to end:
// five multiplicative levels with interleaved rescales must keep ≈1e-2
// precision, which is the regime the HE-CNN inference operates in.
func TestNoiseBudgetAcrossDepth(t *testing.T) {
	params := NewParameters(8, 30, 7, 45)
	kg := NewKeyGenerator(params, 3000)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	rlk := kg.GenRelinearizationKey(sk)
	eval := NewEvaluator(params, rlk, nil)
	enc := NewEncoder(params)
	encr := NewEncryptor(params, pk, 3001)
	decr := NewDecryptor(params, sk)

	rng := rand.New(rand.NewSource(22))
	v := randVec(params.Slots(), 1.1, rng)
	ct := encr.Encrypt(enc.Encode(v, params.L, params.Scale))
	want := append([]float64(nil), v...)

	for depth := 0; depth < 5; depth++ {
		w := randVec(params.Slots(), 1.0, rng)
		pw := enc.Encode(w, ct.Level(), ct.Scale)
		ct = eval.RescaleNew(eval.MulPlainNew(ct, pw))
		for i := range want {
			want[i] *= w[i]
		}
	}
	if ct.Level() != 2 {
		t.Fatalf("final level %d, want 2", ct.Level())
	}
	got := enc.Decode(decr.Decrypt(ct))
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-2 {
			t.Fatalf("slot %d after depth 5: got %g want %g", i, got[i], want[i])
		}
	}
}

func BenchmarkPCmultTestParams(b *testing.B) {
	tc := newTestContext(b, nil)
	v := randVec(tc.params.Slots(), 1, rand.New(rand.NewSource(23)))
	ct := tc.encryptVec(v, 4)
	pw := tc.enc.Encode(v, 4, tc.params.Scale)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tc.eval.MulPlainNew(ct, pw)
	}
}

func BenchmarkRescaleTestParams(b *testing.B) {
	tc := newTestContext(b, nil)
	v := randVec(tc.params.Slots(), 1, rand.New(rand.NewSource(24)))
	ct := tc.encryptVec(v, 4)
	pw := tc.enc.Encode(v, 4, tc.params.Scale)
	prod := tc.eval.MulPlainNew(ct, pw)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tc.eval.RescaleNew(prod)
	}
}

func BenchmarkRotateTestParams(b *testing.B) {
	tc := newTestContext(b, []int{1})
	v := randVec(tc.params.Slots(), 1, rand.New(rand.NewSource(25)))
	ct := tc.encryptVec(v, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tc.eval.RotateNew(ct, 1)
	}
}

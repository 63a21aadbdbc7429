package ckks

import (
	"math"
	"math/big"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"fxhenn/internal/ring"
)

func randVec(n int, amp float64, rng *rand.Rand) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = amp * (2*rng.Float64() - 1)
	}
	return v
}

func maxAbsDiff(a, b []float64) float64 {
	d := 0.0
	for i := range a {
		if x := math.Abs(a[i] - b[i]); x > d {
			d = x
		}
	}
	return d
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	params := paramsTest()
	enc := NewEncoder(params)
	rng := rand.New(rand.NewSource(1))
	for _, level := range []int{2, 3, params.L} {
		v := randVec(params.Slots(), 10, rng)
		pt := enc.Encode(v, level, params.Scale)
		if pt.Level() != level {
			t.Fatalf("encoded level %d want %d", pt.Level(), level)
		}
		got := enc.Decode(pt)
		if d := maxAbsDiff(v, got[:len(v)]); d > 1e-5 {
			t.Fatalf("level %d: roundtrip error %g", level, d)
		}
	}
	// At level 1 the message·scale must fit a single 30-bit prime, so only
	// small amplitudes survive — the reason the HE-CNN never descends to
	// level 1.
	v := randVec(params.Slots(), 0.1, rng)
	pt := enc.Encode(v, 1, params.Scale)
	got := enc.Decode(pt)
	if d := maxAbsDiff(v, got[:len(v)]); d > 1e-5 {
		t.Fatalf("level 1: roundtrip error %g", d)
	}
}

func TestEncodeConstMatchesBroadcastEncode(t *testing.T) {
	params := paramsTest()
	enc := NewEncoder(params)
	broadcast := func(c float64) []float64 {
		v := make([]float64, params.Slots())
		for i := range v {
			v[i] = c
		}
		return v
	}
	for _, c := range []float64{0, 1, -1, 0.37, -2.25, 117.5} {
		for _, level := range []int{2, params.L} {
			fast := enc.EncodeConst(c, level, params.Scale)
			if fast.Level() != level || !fast.IsNTT {
				t.Fatalf("EncodeConst(%g) level=%d IsNTT=%v", c, fast.Level(), fast.IsNTT)
			}
			got := enc.Decode(fast)
			if d := maxAbsDiff(broadcast(c), got); d > 1e-5 {
				t.Fatalf("EncodeConst(%g) level %d: decode error %g", c, level, d)
			}
			// The fast path must agree with the FFT path slot-for-slot to
			// encoding precision — batched evaluation mixes the two.
			slow := enc.Decode(enc.Encode(broadcast(c), level, params.Scale))
			if d := maxAbsDiff(slow, got); d > 1e-5 {
				t.Fatalf("EncodeConst(%g) level %d: diverges from Encode by %g", c, level, d)
			}
		}
	}
	// Arbitrary (non-default) scales, as PCadd uses: the running ciphertext
	// scale is a product of rescale corrections, not a power of two.
	fast := enc.EncodeConst(0.81, 3, params.Scale*1.0375)
	got := enc.Decode(fast)
	if d := maxAbsDiff(broadcast(0.81), got); d > 1e-5 {
		t.Fatalf("EncodeConst at odd scale: decode error %g", d)
	}
	// Magnitudes beyond a word take the big.Int path.
	huge := enc.EncodeConst(math.Exp2(40), params.L, params.Scale)
	gotHuge := enc.Decode(huge)
	if d := math.Abs(gotHuge[0]-math.Exp2(40)) / math.Exp2(40); d > 1e-9 {
		t.Fatalf("EncodeConst big path: relative error %g", d)
	}
}

func TestEncodeConstValidation(t *testing.T) {
	enc := NewEncoder(paramsTest())
	for _, level := range []int{0, -1, 99} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("EncodeConst level %d did not panic", level)
				}
			}()
			enc.EncodeConst(1, level, enc.params.Scale)
		}()
	}
}

// encodeComplex encodes at most N/2 complex slot values, as Encode does
// real ones.
func encodeComplex(e *Encoder, values []complex128, level int, scale float64) *Plaintext {
	e.checkEncode(len(values), level)
	buf := e.slotBuf()
	copy(buf, values)
	return e.encodeSlots(buf, level, scale)
}

// decodeComplex decodes pt's N/2 complex slot values.
func decodeComplex(e *Encoder, pt *Plaintext) []complex128 {
	buf := make([]complex128, e.params.Slots())
	e.decodeInto(buf, pt)
	return buf
}

func TestEncodeDecodeComplex(t *testing.T) {
	params := paramsTest()
	enc := NewEncoder(params)
	rng := rand.New(rand.NewSource(2))
	v := make([]complex128, params.Slots())
	for i := range v {
		v[i] = complex(2*rng.Float64()-1, 2*rng.Float64()-1)
	}
	pt := encodeComplex(enc, v, 2, params.Scale)
	got := decodeComplex(enc, pt)
	for i := range v {
		if cmplx.Abs(v[i]-got[i]) > 1e-5 {
			t.Fatalf("slot %d: %v != %v", i, got[i], v[i])
		}
	}
}

func TestEncodeShortVectorZeroPads(t *testing.T) {
	params := paramsTest()
	enc := NewEncoder(params)
	v := []float64{1.5, -2.25, 3.125}
	pt := enc.Encode(v, 2, params.Scale)
	got := enc.Decode(pt)
	if d := maxAbsDiff(v, got[:3]); d > 1e-6 {
		t.Fatalf("prefix error %g", d)
	}
	for i := 3; i < params.Slots(); i++ {
		if math.Abs(got[i]) > 1e-6 {
			t.Fatalf("slot %d not zero: %g", i, got[i])
		}
	}
}

func TestEncodeValidation(t *testing.T) {
	params := paramsTest()
	enc := NewEncoder(params)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("oversized vector did not panic")
			}
		}()
		enc.Encode(make([]float64, params.Slots()+1), 2, params.Scale)
	}()
	for _, level := range []int{0, params.L + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("level %d did not panic", level)
				}
			}()
			enc.Encode([]float64{1}, level, params.Scale)
		}()
	}
}

// TestEncodingIsAdditivelyHomomorphic: Encode(a) + Encode(b) decodes to a+b.
func TestEncodingIsAdditivelyHomomorphic(t *testing.T) {
	params := paramsTest()
	enc := NewEncoder(params)
	r := params.Ring()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randVec(params.Slots(), 5, rng)
		b := randVec(params.Slots(), 5, rng)
		pa := enc.Encode(a, 2, params.Scale)
		pb := enc.Encode(b, 2, params.Scale)
		r.Add(pa.Value, pa.Value, pb.Value)
		got := enc.Decode(pa)
		for i := range a {
			if math.Abs(got[i]-(a[i]+b[i])) > 1e-5 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestEncodingIsMultiplicativelyHomomorphic: the negacyclic product of two
// encodings decodes to the slotwise product at scale².
func TestEncodingIsMultiplicativelyHomomorphic(t *testing.T) {
	params := paramsTest()
	enc := NewEncoder(params)
	r := params.Ring()
	rng := rand.New(rand.NewSource(3))
	a := randVec(params.Slots(), 4, rng)
	b := randVec(params.Slots(), 4, rng)
	pa := enc.Encode(a, params.L, params.Scale)
	pb := enc.Encode(b, params.L, params.Scale)
	r.MulCoeffs(pa.Value, pa.Value, pb.Value) // both NTT domain
	pa.Scale *= pb.Scale
	got := enc.Decode(pa)
	for i := range a {
		if math.Abs(got[i]-a[i]*b[i]) > 1e-4 {
			t.Fatalf("slot %d: %g != %g", i, got[i], a[i]*b[i])
		}
	}
}

// TestAutomorphismRotatesSlots pins down the slot-rotation convention:
// applying X -> X^(5^k) to an encoding rotates the slot vector left by k.
func TestAutomorphismRotatesSlots(t *testing.T) {
	params := paramsTest()
	enc := NewEncoder(params)
	r := params.Ring()
	rng := rand.New(rand.NewSource(4))
	v := randVec(params.Slots(), 3, rng)
	for _, k := range []int{1, 2, 7, params.Slots() - 1} {
		pt := enc.Encode(v, 2, params.Scale)
		coeff := pt.Value.Copy()
		r.INTT(coeff)
		rot := r.NewPoly(2)
		r.Automorphism(rot, coeff, params.GaloisElementForRotation(k))
		got := enc.Decode(&Plaintext{Value: rot, Scale: pt.Scale, IsNTT: false})
		for i := 0; i < params.Slots(); i++ {
			want := v[(i+k)%params.Slots()]
			if math.Abs(got[i]-want) > 1e-5 {
				t.Fatalf("k=%d slot %d: got %g want %g", k, i, got[i], want)
			}
		}
	}
}

// TestConjugationConjugatesSlots: X -> X^(2N-1) conjugates every slot.
func TestConjugationConjugatesSlots(t *testing.T) {
	params := paramsTest()
	enc := NewEncoder(params)
	r := params.Ring()
	rng := rand.New(rand.NewSource(5))
	v := make([]complex128, params.Slots())
	for i := range v {
		v[i] = complex(rng.Float64(), rng.Float64())
	}
	pt := encodeComplex(enc, v, 2, params.Scale)
	coeff := pt.Value.Copy()
	r.INTT(coeff)
	conj := r.NewPoly(2)
	r.Automorphism(conj, coeff, uint64(2*params.N()-1)) // X -> X^(2N-1)
	got := decodeComplex(enc, &Plaintext{Value: conj, Scale: pt.Scale, IsNTT: false})
	for i := range v {
		if cmplx.Abs(got[i]-cmplx.Conj(v[i])) > 1e-5 {
			t.Fatalf("slot %d: got %v want %v", i, got[i], cmplx.Conj(v[i]))
		}
	}
}

func TestGaloisElements(t *testing.T) {
	params := paramsTest()
	if g := params.GaloisElementForRotation(0); g != 1 {
		t.Fatalf("rotation 0 element = %d, want 1", g)
	}
	// Rotation by slots is the identity.
	if g := params.GaloisElementForRotation(params.Slots()); g != 1 {
		t.Fatalf("full rotation element = %d, want 1", g)
	}
	// Negative rotations normalize.
	if params.GaloisElementForRotation(-1) != params.GaloisElementForRotation(params.Slots()-1) {
		t.Fatal("negative rotation not normalized")
	}
}

func TestParamsAccessors(t *testing.T) {
	p := paramsTest()
	if p.N() != 256 || p.Slots() != 128 || p.MaxLevel() != 5 {
		t.Fatalf("unexpected geometry: N=%d slots=%d L=%d", p.N(), p.Slots(), p.MaxLevel())
	}
	if p.LogQ() != 150 {
		t.Fatalf("LogQ=%d want 150", p.LogQ())
	}
	if p.PlaintextBytes(2) != 2*256*8 {
		t.Fatal("PlaintextBytes wrong")
	}
	if p.String() == "" {
		t.Fatal("empty String()")
	}
	if len(p.Moduli) != 5 {
		t.Fatal("moduli count")
	}
}

func TestParamsValidation(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("L=1 did not panic")
			}
		}()
		NewParameters(8, 30, 1, 45)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("pBits <= qBits did not panic")
			}
		}()
		NewParameters(8, 30, 3, 30)
	}()
}

func TestPaperParameterPresets(t *testing.T) {
	if testing.Short() {
		t.Skip("large parameter generation")
	}
	m := ParamsMNIST()
	if m.N() != 8192 || m.L != 7 || m.QBits != 30 {
		t.Fatalf("MNIST params wrong: %v", m)
	}
	if m.LogQ() != 210 {
		t.Fatalf("MNIST logQ = %d, want 210 (Table VII)", m.LogQ())
	}
	c := ParamsCIFAR10()
	if c.N() != 16384 || c.L != 7 || c.QBits != 36 {
		t.Fatalf("CIFAR10 params wrong: %v", c)
	}
	if c.LogQ() != 252 {
		t.Fatalf("CIFAR10 logQ = %d, want 252 (Table VII)", c.LogQ())
	}
}

// bigToFloat is the reference conversion: v rounded once to the nearest
// float64.
func bigToFloat(v *big.Int) float64 {
	f, _ := new(big.Float).SetInt(v).Float64()
	return f
}

// TestDecodeComposesLikeComposeCoeff: the decoder's coefficient reader,
// one CRT and one big.Float for every coefficient, gives exactly
// bigToFloat of a fresh per-coefficient ComposeCoeff at every level of
// the MNIST parameters and of the N = 256 ring, on uniform residues and
// on the centering boundary ±⌊Q/2⌋.
func TestDecodeComposesLikeComposeCoeff(t *testing.T) {
	for _, params := range []Parameters{ParamsMNIST(), paramsTest()} {
		r := params.Ring()
		rng := rand.New(rand.NewSource(int64(params.N())))
		for k := 1; k <= params.L; k++ {
			p := r.NewPoly(k)
			for i, row := range p.Coeffs {
				for j := range row {
					row[j] = rng.Uint64() % r.Moduli[i]
				}
			}
			half := new(big.Int).Rsh(r.ModulusAtLevel(k), 1)
			for j, v := range []*big.Int{half, new(big.Int).Neg(half), new(big.Int).Sub(half, big.NewInt(1)), big.NewInt(0), big.NewInt(-1)} {
				r.SetCoeffBig(p, j, v)
			}
			cf := newCoeffFloats(r, k)
			for j := range r.N {
				want := bigToFloat(r.NewCRT(k).ComposeCoeff(new(big.Int), p, j))
				if got := cf.at(p, j); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("N=%d level %d coefficient %d: %g, reference %g", r.N, k, j, got, want)
				}
			}
		}
	}
}

// TestScopedEncoderMatchesUnscoped: an encoder scoped to a row list
// (WithRows) and EncryptFrom on the same list give the unscoped encoder's
// and Encrypt's bits, also on a list dirty from an earlier pass whose
// plaintexts and ciphertexts went back to it, and decode identically.
func TestScopedEncoderMatchesUnscoped(t *testing.T) {
	params := paramsTest()
	kg := NewKeyGenerator(params, 1000)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	rng := rand.New(rand.NewSource(3))
	v := randVec(params.Slots()/2, 1, rng)

	plain, plainEncr := NewEncoder(params), NewEncryptor(params, pk, 7)
	var rows ring.Rows
	scoped, scopedEncr := plain.WithRows(&rows), NewEncryptor(params, pk, 7)
	dec := NewDecryptor(params, sk)
	for pass := range 2 {
		want := plainEncr.Encrypt(plain.Encode(v, params.L, params.Scale))
		pt := scoped.Encode(v, params.L, params.Scale)
		got := scopedEncr.EncryptFrom(&rows, pt)
		if got.Digest() != want.Digest() {
			t.Fatalf("pass %d: scoped ciphertext differs", pass)
		}
		wantT, gotT := plain.Encode(v[:5], 2, params.Scale), scoped.Encode(v[:5], 2, params.Scale)
		if gotT.Digest() != wantT.Digest() {
			t.Fatalf("pass %d: scoped Encode at level 2 differs", pass)
		}
		m := dec.Decrypt(want)
		wantV, gotV := plain.Decode(m), scoped.Decode(m)
		for i := range wantV {
			if math.Float64bits(gotV[i]) != math.Float64bits(wantV[i]) {
				t.Fatalf("pass %d: scoped Decode slot %d = %g, want %g", pass, i, gotV[i], wantV[i])
			}
		}
		rows.Recycle(pt.Value)
		rows.Recycle(gotT.Value)
		for _, p := range got.Value {
			rows.Recycle(p)
		}
	}
	if plain.rows != nil || plain.slots != nil {
		t.Fatal("WithRows changed the encoder it copied")
	}
}

package ckks

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
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

func TestEncodeDecodeComplex(t *testing.T) {
	params := paramsTest()
	enc := NewEncoder(params)
	rng := rand.New(rand.NewSource(2))
	v := make([]complex128, params.Slots())
	for i := range v {
		v[i] = complex(2*rng.Float64()-1, 2*rng.Float64()-1)
	}
	pt := enc.EncodeComplex(v, 2, params.Scale)
	got := enc.DecodeComplex(pt)
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
	pt := enc.EncodeComplex(v, 2, params.Scale)
	coeff := pt.Value.Copy()
	r.INTT(coeff)
	conj := r.NewPoly(2)
	r.Automorphism(conj, coeff, uint64(2*params.N()-1)) // X -> X^(2N-1)
	got := enc.DecodeComplex(&Plaintext{Value: conj, Scale: pt.Scale, IsNTT: false})
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

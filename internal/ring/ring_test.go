package ring

import (
	"math/big"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"fxhenn/internal/parallel"
	"fxhenn/internal/primes"
)

func testRing(t testing.TB, n, nbMod int) *Ring {
	t.Helper()
	return NewRing(n, primes.GenerateNTTPrimes(30, log2(n), nbMod))
}

// Equal reports whether two polynomials have identical levels and residues.
func (r *Ring) Equal(a, b *Poly) bool {
	return slices.EqualFunc(a.Coeffs, b.Coeffs, slices.Equal[[]uint64])
}

func log2(n int) int {
	l := 0
	for 1<<uint(l) < n {
		l++
	}
	return l
}

func TestNewRingValidation(t *testing.T) {
	q := primes.GenerateNTTPrimes(30, 5, 1)[0]
	func() {
		defer func() {
			if recover() == nil {
				t.Error("empty modulus chain did not panic")
			}
		}()
		NewRing(32, nil)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("duplicate modulus did not panic")
			}
		}()
		NewRing(32, []uint64{q, q})
	}()
}

func TestNewPolyBounds(t *testing.T) {
	r := testRing(t, 32, 3)
	for _, k := range []int{0, 4} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewPoly(%d) did not panic", k)
				}
			}()
			r.NewPoly(k)
		}()
	}
	if p := r.NewPoly(2); p.K() != 2 || len(p.Coeffs[0]) != 32 {
		t.Fatal("NewPoly shape wrong")
	}
}

func TestAddSubNegRoundTrip(t *testing.T) {
	r := testRing(t, 64, 3)
	s := NewSampler(r, 1)
	a := s.Uniform(3)
	b := s.Uniform(3)
	sum := r.NewPoly(3)
	r.Add(sum, a, b)
	back := r.NewPoly(3)
	r.Neg(back, b)
	r.Add(back, sum, back)
	if !r.Equal(back, a) {
		t.Fatal("(a+b)+(-b) != a")
	}
	neg := r.NewPoly(3)
	r.Neg(neg, a)
	r.Add(neg, neg, a)
	zero := r.NewPoly(3)
	if !r.Equal(neg, zero) {
		t.Fatal("a + (-a) != 0")
	}
}

// composeCoeff is the per-coefficient CRT reference: a fresh CRT, its
// constants built for this one coefficient.
func composeCoeff(r *Ring, p *Poly, j int) *big.Int {
	return r.NewCRT(p.K()).ComposeCoeff(new(big.Int), p, j)
}

// TestCRTComposeRoundTrip: SetCoeffBig then ComposeCoeff must reproduce any
// centered value, property-checked over random big integers.
func TestCRTComposeRoundTrip(t *testing.T) {
	r := testRing(t, 16, 4)
	q := r.ModulusAtLevel(4)
	half := new(big.Int).Rsh(q, 1)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		v := new(big.Int).Rand(rng, q)
		v.Sub(v, half) // centered range
		p := r.NewPoly(4)
		r.SetCoeffBig(p, 7, v)
		return composeCoeff(r, p, 7).Cmp(v) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestMulCoeffsMatchesBigCRT: pointwise products agree with CRT semantics.
func TestMulCoeffsMatchesBigCRT(t *testing.T) {
	r := testRing(t, 16, 3)
	s := NewSampler(r, 2)
	a := s.Uniform(3)
	b := s.Uniform(3)
	out := r.NewPoly(3)
	r.MulCoeffs(out, a, b)
	q := r.ModulusAtLevel(3)
	for j := 0; j < r.N; j++ {
		av := composeCoeff(r, a, j)
		bv := composeCoeff(r, b, j)
		want := new(big.Int).Mul(av, bv)
		want.Mod(want, q)
		got := new(big.Int).Mod(composeCoeff(r, out, j), q)
		if got.Cmp(want) != 0 {
			t.Fatalf("coeff %d: pointwise product disagrees with CRT", j)
		}
	}
}

func TestMulCoeffsAdd(t *testing.T) {
	r := testRing(t, 32, 2)
	s := NewSampler(r, 3)
	a := s.Uniform(2)
	b := s.Uniform(2)
	acc := s.Uniform(2)
	ref := acc.Copy()
	r.MulCoeffsAdd(acc, a, b)
	prod := r.NewPoly(2)
	r.MulCoeffs(prod, a, b)
	r.Add(ref, ref, prod)
	if !r.Equal(acc, ref) {
		t.Fatal("MulCoeffsAdd != acc + a*b")
	}
}

func TestNTTRoundTripPoly(t *testing.T) {
	r := testRing(t, 128, 4)
	s := NewSampler(r, 4)
	p := s.Uniform(4)
	orig := p.Copy()
	r.NTT(p)
	r.INTT(p)
	if !r.Equal(p, orig) {
		t.Fatal("NTT/INTT roundtrip failed")
	}
}

// TestDivRoundByLastModulus checks Rescale against exact big-integer
// rounding: for every coefficient, result = round(x / q_last) centered.
func TestDivRoundByLastModulus(t *testing.T) {
	r := testRing(t, 16, 4)
	s := NewSampler(r, 5)
	p := s.Uniform(4)
	qLast := new(big.Int).SetUint64(r.Moduli[3])
	want := make([]*big.Int, r.N)
	for j := 0; j < r.N; j++ {
		x := composeCoeff(r, p, j)
		// round(x/q) = floor((2x + q) / 2q) for the signed x: big.Int's
		// Div is Euclidean, which is flooring for a positive divisor, and
		// q is odd, so there are no ties.
		num := new(big.Int).Lsh(x, 1)
		num.Add(num, qLast)
		den := new(big.Int).Lsh(qLast, 1)
		want[j] = new(big.Int).Div(num, den)
	}
	r.DivRoundByLastModulus(p)
	if p.K() != 3 {
		t.Fatalf("level after rescale = %d, want 3", p.K())
	}
	for j := 0; j < r.N; j++ {
		if got := composeCoeff(r, p, j); got.Cmp(want[j]) != 0 {
			t.Fatalf("coeff %d: rescale gave %s, want %s", j, got, want[j])
		}
	}

	// ModDown: rows 0..k-1 divided by the special prime at index L (a
	// wider prime, last in the basis, as in ckks.Parameters.Ring), k < L,
	// NTT domain in and out. The CKKS keyswitch ends this way.
	t.Run("moddown", func(t *testing.T) {
		const n, bigL, k = 16, 4, 2
		moduli := append(primes.GenerateNTTPrimes(30, log2(n), bigL), primes.GenerateNTTPrimes(45, log2(n), 1)...)
		r := NewRing(n, moduli)
		sp := new(big.Int).SetUint64(r.Moduli[bigL])
		ext := new(big.Int).Mul(r.ModulusAtLevel(k), sp) // Q_k·p
		rng := rand.New(rand.NewSource(8))
		p := r.NewPoly(k)
		last := make([]uint64, n)
		want := make([]*big.Int, n)
		for j := 0; j < n; j++ {
			// x centered in (-Q_k·p/2, Q_k·p/2].
			x := new(big.Int).Rand(rng, ext)
			if x.Cmp(new(big.Int).Rsh(ext, 1)) > 0 {
				x.Sub(x, ext)
			}
			r.SetCoeffBig(p, j, x)
			last[j] = new(big.Int).Mod(x, sp).Uint64()
			// round(x/p) = floor((2x + p) / 2p); p is odd, so no ties.
			num := new(big.Int).Add(new(big.Int).Lsh(x, 1), sp)
			want[j] = num.Div(num, new(big.Int).Lsh(sp, 1))
		}
		r.NTT(p)
		r.Tables[bigL].Forward(last)
		r.DivRoundByModulusNTT(p, last, bigL)
		r.INTT(p)
		if p.K() != k {
			t.Fatalf("level after ModDown = %d, want %d", p.K(), k)
		}
		for j := 0; j < n; j++ {
			if got := composeCoeff(r, p, j); got.Cmp(want[j]) != 0 {
				t.Fatalf("coeff %d: ModDown gave %s, want %s", j, got, want[j])
			}
		}
	})
}

// TestDivRoundParallelMatchesSerial: with a pool attached, both centered
// divisions fan their rows out (one work item per row) and give the serial
// bits. Under -race it also checks that rows share only the read-only
// divisor row.
func TestDivRoundParallelMatchesSerial(t *testing.T) {
	r := testRing(t, 512, 5)
	s := NewSampler(r, 9)
	in := s.Uniform(5)
	run := func() (rescaled, divided *Poly) {
		rescaled = in.Copy()
		r.DivRoundByLastModulus(rescaled)
		divided = in.Copy()
		last := divided.Coeffs[4]
		divided.DropLast(1)
		r.DivRoundByModulusNTT(divided, last, 4)
		return rescaled, divided
	}
	wantR, wantD := run()
	pool := parallel.New(4)
	r.AttachPool(pool)
	defer r.AttachPool(nil)
	gotR, gotD := run()
	if !r.Equal(gotR, wantR) || !r.Equal(gotD, wantD) {
		t.Fatal("parallel division differs from serial")
	}
	if st := pool.Stats(); st.Dispatched+st.Inline == 0 {
		t.Fatal("pool never executed an item")
	}
}

func TestDivRoundPanicsAtLevel1(t *testing.T) {
	r := testRing(t, 16, 2)
	p := r.NewPoly(1)
	defer func() {
		if recover() == nil {
			t.Fatal("rescaling level-1 poly did not panic")
		}
	}()
	r.DivRoundByLastModulus(p)
}

// TestAutomorphismComposition: applying g then h equals applying g*h mod 2N.
func TestAutomorphismComposition(t *testing.T) {
	r := testRing(t, 64, 2)
	s := NewSampler(r, 6)
	a := s.Uniform(2)
	g, h := uint64(5), uint64(9)
	t1 := r.NewPoly(2)
	t2 := r.NewPoly(2)
	r.Automorphism(t1, a, g)
	r.Automorphism(t2, t1, h)
	direct := r.NewPoly(2)
	r.Automorphism(direct, a, (g*h)%(2*uint64(r.N)))
	if !r.Equal(t2, direct) {
		t.Fatal("automorphism composition failed")
	}
}

// TestAutomorphismIdentity: g=1 is the identity; g=2N-1 is an involution
// (complex conjugation in CKKS).
func TestAutomorphismIdentity(t *testing.T) {
	r := testRing(t, 32, 2)
	s := NewSampler(r, 7)
	a := s.Uniform(2)
	out := r.NewPoly(2)
	r.Automorphism(out, a, 1)
	if !r.Equal(out, a) {
		t.Fatal("automorphism with g=1 is not identity")
	}
	conj := uint64(2*r.N - 1)
	t1 := r.NewPoly(2)
	r.Automorphism(t1, a, conj)
	t2 := r.NewPoly(2)
	r.Automorphism(t2, t1, conj)
	if !r.Equal(t2, a) {
		t.Fatal("conjugation is not an involution")
	}
}

// TestAutomorphismMultiplicative: σ_g(a*b) = σ_g(a) * σ_g(b) where products
// are negacyclic (computed via NTT).
func TestAutomorphismMultiplicative(t *testing.T) {
	r := testRing(t, 32, 2)
	s := NewSampler(r, 8)
	a := s.Uniform(2)
	b := s.Uniform(2)
	g := uint64(5)

	prod := r.NewPoly(2)
	an := a.Copy()
	bn := b.Copy()
	r.NTT(an)
	r.NTT(bn)
	r.MulCoeffs(prod, an, bn)
	r.INTT(prod)
	lhs := r.NewPoly(2)
	r.Automorphism(lhs, prod, g)

	ag := r.NewPoly(2)
	bg := r.NewPoly(2)
	r.Automorphism(ag, a, g)
	r.Automorphism(bg, b, g)
	r.NTT(ag)
	r.NTT(bg)
	rhs := r.NewPoly(2)
	r.MulCoeffs(rhs, ag, bg)
	r.INTT(rhs)

	if !r.Equal(lhs, rhs) {
		t.Fatal("automorphism is not multiplicative")
	}
}

func TestAutomorphismValidation(t *testing.T) {
	r := testRing(t, 16, 2)
	a := r.NewPoly(2)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("in-place automorphism did not panic")
			}
		}()
		r.Automorphism(a, a, 5)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("even exponent did not panic")
			}
		}()
		r.Automorphism(r.NewPoly(2), a, 4)
	}()
}

// TestBasisExtension verifies the HPS fast extension against exact CRT
// arithmetic for random polynomials at several levels.
func TestBasisExtension(t *testing.T) {
	r := testRing(t, 16, 4)
	p := primes.GenerateNTTPrimes(45, log2(16), 1)[0]
	be := NewBasisExtender(r, p)
	bp := new(big.Int).SetUint64(p)
	s := NewSampler(r, 9)
	for k := 1; k <= 4; k++ {
		poly := s.Uniform(k)
		dst := make([]uint64, r.N)
		be.ExtendCoeffs(poly.Coeffs[:k], dst)
		for j := 0; j < r.N; j++ {
			x := composeCoeff(r, &Poly{Coeffs: poly.Coeffs[:k]}, j)
			want := new(big.Int).Mod(x, bp)
			if want.Sign() < 0 {
				want.Add(want, bp)
			}
			if dst[j] != want.Uint64() {
				t.Fatalf("k=%d coeff %d: extension %d want %s", k, j, dst[j], want)
			}
		}
	}
}

func TestCopySemantics(t *testing.T) {
	r := testRing(t, 16, 2)
	s := NewSampler(r, 10)
	a := s.Uniform(2)
	c := a.Copy()
	c.Coeffs[0][0] ^= 1
	if r.Equal(a, c) {
		t.Fatal("Copy did not deep-copy")
	}
	d := r.NewPoly(2)
	a.CopyInto(d)
	if !r.Equal(a, d) {
		t.Fatal("CopyInto mismatch")
	}
}

func TestSamplerDistributions(t *testing.T) {
	r := testRing(t, 1024, 2)
	s := NewSampler(r, 11)

	tern := s.Ternary(2)
	counts := map[uint64]int{}
	for j := 0; j < r.N; j++ {
		counts[tern.Coeffs[0][j]]++
	}
	if len(counts) > 3 {
		t.Fatalf("ternary poly has %d distinct residues", len(counts))
	}
	// Rows must be consistent representations of the same small value.
	for j := 0; j < r.N; j++ {
		v0 := center(tern.Coeffs[0][j], r.Moduli[0])
		v1 := center(tern.Coeffs[1][j], r.Moduli[1])
		if v0 != v1 {
			t.Fatal("ternary rows inconsistent")
		}
		if v0 < -1 || v0 > 1 {
			t.Fatalf("ternary coefficient %d out of range", v0)
		}
	}

	err := s.Error(2)
	var sum, sumSq float64
	for j := 0; j < r.N; j++ {
		v := float64(center(err.Coeffs[0][j], r.Moduli[0]))
		sum += v
		sumSq += v * v
	}
	mean := sum / float64(r.N)
	std := sumSq/float64(r.N) - mean*mean
	if mean > 0.5 || mean < -0.5 {
		t.Fatalf("error mean %f too far from 0", mean)
	}
	if std < 4 || std > 25 { // variance ≈ 10.5 for CBD(21)
		t.Fatalf("error variance %f outside expected band", std)
	}
}

func center(v, q uint64) int64 {
	if v > q/2 {
		return -int64(q - v)
	}
	return int64(v)
}

func BenchmarkMulCoeffsL7N8192(b *testing.B) {
	r := NewRing(8192, primes.GenerateNTTPrimes(30, 13, 7))
	s := NewSampler(r, 12)
	x := s.Uniform(7)
	y := s.Uniform(7)
	out := r.NewPoly(7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.MulCoeffs(out, x, y)
	}
}

func BenchmarkNTTL7N8192(b *testing.B) {
	r := NewRing(8192, primes.GenerateNTTPrimes(30, 13, 7))
	s := NewSampler(r, 13)
	x := s.Uniform(7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.NTT(x)
	}
}

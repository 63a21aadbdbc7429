package modarith

import (
	"math/big"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

// testPrimes spans the word sizes used by the paper's parameter sets:
// 30-bit q_i (FxHENN-MNIST), 36-bit q_i (FxHENN-CIFAR10), a 54-bit prime
// (Table VIII) and a few tiny primes that stress the correction paths.
var testPrimes = []uint64{
	2, 3, 17, 257, 65537,
	1073479681,          // 30-bit NTT-friendly
	68719403009,         // 36-bit
	18014398508400641,   // 54-bit
	4611686018326724609, // close to the 2^62 ceiling
}

func TestNewModulusRejectsOutOfRange(t *testing.T) {
	for _, q := range []uint64{0, 1, 1 << 62, 1<<62 + 5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewModulus(%d) did not panic", q)
				}
			}()
			NewModulus(q)
		}()
	}
}

func TestAddSubNeg(t *testing.T) {
	for _, q := range testPrimes {
		m := NewModulus(q)
		rng := rand.New(rand.NewSource(int64(q)))
		for i := 0; i < 200; i++ {
			a := rng.Uint64() % q
			b := rng.Uint64() % q
			if got, want := m.Add(a, b), (a%q+b%q)%q; got != want {
				t.Fatalf("q=%d Add(%d,%d)=%d want %d", q, a, b, got, want)
			}
			if got, want := m.Sub(a, b), (a+q-b)%q; got != want {
				t.Fatalf("q=%d Sub(%d,%d)=%d want %d", q, a, b, got, want)
			}
			if got, want := m.Neg(a), (q-a)%q; got != want {
				t.Fatalf("q=%d Neg(%d)=%d want %d", q, a, got, want)
			}
		}
	}
}

func TestReduceMatchesBigInt(t *testing.T) {
	for _, q := range testPrimes {
		m := NewModulus(q)
		rng := rand.New(rand.NewSource(42))
		for i := 0; i < 500; i++ {
			x := rng.Uint64()
			want := new(big.Int).Mod(new(big.Int).SetUint64(x), new(big.Int).SetUint64(q)).Uint64()
			if got := m.Reduce(x); got != want {
				t.Fatalf("q=%d Reduce(%d)=%d want %d", q, x, got, want)
			}
		}
	}
}

func TestMulMatchesBigInt(t *testing.T) {
	for _, q := range testPrimes {
		m := NewModulus(q)
		bq := new(big.Int).SetUint64(q)
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 500; i++ {
			a := rng.Uint64() % q
			b := rng.Uint64() % q
			prod := new(big.Int).Mul(new(big.Int).SetUint64(a), new(big.Int).SetUint64(b))
			want := prod.Mod(prod, bq).Uint64()
			if got := m.Mul(a, b); got != want {
				t.Fatalf("q=%d Mul(%d,%d)=%d want %d", q, a, b, got, want)
			}
		}
	}
}

// TestMulProperty cross-checks Barrett multiplication against math/big over
// arbitrary residue pairs using testing/quick.
func TestMulProperty(t *testing.T) {
	m := NewModulus(1073479681)
	bq := new(big.Int).SetUint64(m.Q)
	f := func(a, b uint64) bool {
		a %= m.Q
		b %= m.Q
		prod := new(big.Int).Mul(new(big.Int).SetUint64(a), new(big.Int).SetUint64(b))
		return m.Mul(a, b) == prod.Mod(prod, bq).Uint64()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestReduceWideEdges exercises the largest inputs the contract allows,
// where the Barrett estimate is most likely to need both corrections.
func TestReduceWideEdges(t *testing.T) {
	for _, q := range testPrimes {
		m := NewModulus(q)
		bq := new(big.Int).SetUint64(q)
		cases := [][2]uint64{
			{0, 0}, {0, q - 1}, {0, ^uint64(0)},
			{q - 1, ^uint64(0)}, {q - 1, 0}, {q / 2, q / 2},
		}
		for _, c := range cases {
			hi, lo := c[0], c[1]
			x := new(big.Int).Lsh(new(big.Int).SetUint64(hi), 64)
			x.Add(x, new(big.Int).SetUint64(lo))
			want := new(big.Int).Mod(x, bq).Uint64()
			if got := m.ReduceWide(hi, lo); got != want {
				t.Fatalf("q=%d ReduceWide(%d,%d)=%d want %d", q, hi, lo, got, want)
			}
		}
	}
}

func TestMulAdd(t *testing.T) {
	for _, q := range testPrimes {
		m := NewModulus(q)
		rng := rand.New(rand.NewSource(11))
		for i := 0; i < 300; i++ {
			a, b, c := rng.Uint64()%q, rng.Uint64()%q, rng.Uint64()%q
			want := m.Add(m.Mul(a, b), c)
			if got := m.MulAdd(a, b, c); got != want {
				t.Fatalf("q=%d MulAdd(%d,%d,%d)=%d want %d", q, a, b, c, got, want)
			}
		}
	}
}

func TestPowInv(t *testing.T) {
	for _, q := range testPrimes {
		if q < 3 {
			continue
		}
		m := NewModulus(q)
		rng := rand.New(rand.NewSource(13))
		for i := 0; i < 100; i++ {
			a := 1 + rng.Uint64()%(q-1)
			inv := m.Inv(a)
			if m.Mul(a, inv) != 1 {
				t.Fatalf("q=%d Inv(%d)=%d not an inverse", q, a, inv)
			}
		}
		if got := m.Pow(0, 0); got != 1 {
			t.Fatalf("Pow(0,0)=%d want 1", got)
		}
		if got := m.Pow(5, 1); got != m.Reduce(5) {
			t.Fatalf("Pow(5,1)=%d", got)
		}
	}
}

func TestInvZeroPanics(t *testing.T) {
	m := NewModulus(65537)
	defer func() {
		if recover() == nil {
			t.Fatal("Inv(0) did not panic")
		}
	}()
	m.Inv(0)
}

func TestShoupMulConst(t *testing.T) {
	for _, q := range testPrimes {
		m := NewModulus(q)
		rng := rand.New(rand.NewSource(17))
		for i := 0; i < 200; i++ {
			w := rng.Uint64() % q
			c := NewMulConst(m, w)
			a := rng.Uint64() % q
			if got, want := c.Mul(a, m), m.Mul(a, w); got != want {
				t.Fatalf("q=%d Shoup %d*%d=%d want %d", q, a, w, got, want)
			}
		}
	}
}

func TestVecOps(t *testing.T) {
	m := NewModulus(1073479681)
	const n = 64
	rng := rand.New(rand.NewSource(19))
	a := make([]uint64, n)
	b := make([]uint64, n)
	for i := range a {
		a[i] = rng.Uint64() % m.Q
		b[i] = rng.Uint64() % m.Q
	}
	out := make([]uint64, n)

	m.AddVec(out, a, b)
	for i := range out {
		if out[i] != m.Add(a[i], b[i]) {
			t.Fatal("AddVec mismatch")
		}
	}
	m.MulVec(out, a, b)
	for i := range out {
		if out[i] != m.Mul(a[i], b[i]) {
			t.Fatal("MulVec mismatch")
		}
	}
	acc := make([]uint64, n)
	copy(acc, out)
	m.MulAddVec(acc, a, b)
	for i := range acc {
		if acc[i] != m.Add(out[i], m.Mul(a[i], b[i])) {
			t.Fatal("MulAddVec mismatch")
		}
	}
	s := uint64(987654321)
	m.ScalarMulVec(out, a, s)
	for i := range out {
		if out[i] != m.Mul(a[i], s) {
			t.Fatal("ScalarMulVec mismatch")
		}
	}
	m.AddScalarVec(out, a, s)
	for i := range out {
		if out[i] != m.Add(a[i], s) {
			t.Fatal("AddScalarVec mismatch")
		}
	}
	m.NegVec(out, a)
	for i := range out {
		if out[i] != m.Neg(a[i]) {
			t.Fatal("NegVec mismatch")
		}
	}
	raw := make([]uint64, n)
	for i := range raw {
		raw[i] = rng.Uint64()
	}
	m.ReduceVec(out, raw)
	for i := range out {
		if out[i] != m.Reduce(raw[i]) {
			t.Fatal("ReduceVec mismatch")
		}
	}
}

func TestVecLengthMismatchPanics(t *testing.T) {
	m := NewModulus(65537)
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched lengths did not panic")
		}
	}()
	m.AddVec(make([]uint64, 3), make([]uint64, 4), make([]uint64, 4))
}

func BenchmarkMulBarrett(b *testing.B) {
	m := NewModulus(1073479681)
	x, y := uint64(123456789), uint64(987654321)
	var s uint64
	for i := 0; i < b.N; i++ {
		s = m.Mul(x, s^y)
	}
	_ = s
}

func BenchmarkMulShoup(b *testing.B) {
	m := NewModulus(1073479681)
	c := NewMulConst(m, 987654321)
	var s uint64 = 123456789
	for i := 0; i < b.N; i++ {
		s = c.Mul(s, m)
	}
	_ = s
}

func BenchmarkMulWide128(b *testing.B) {
	m := NewModulus(18014398508400641)
	var s uint64 = 1
	for i := 0; i < b.N; i++ {
		hi, lo := bits.Mul64(s|1, 0x123456789abcdef)
		s = m.ReduceWide(hi, lo)
	}
	_ = s
}

package ntt

import (
	"math/rand"
	"testing"
	"testing/quick"

	"fxhenn/internal/modarith"
	"fxhenn/internal/primes"
)

func randomPoly(n int, q uint64, rng *rand.Rand) []uint64 {
	p := make([]uint64, n)
	for i := range p {
		p[i] = rng.Uint64() % q
	}
	return p
}

// schoolbookNegacyclic is the reference O(N^2) product in Z_q[X]/(X^N+1).
func schoolbookNegacyclic(a, b []uint64, m modarith.Modulus) []uint64 {
	n := len(a)
	out := make([]uint64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			p := m.Mul(a[i], b[j])
			k := i + j
			if k < n {
				out[k] = m.Add(out[k], p)
			} else {
				out[k-n] = m.Sub(out[k-n], p) // X^N = -1 wraps with sign flip
			}
		}
	}
	return out
}

func TestNewTableValidation(t *testing.T) {
	q := primes.GenerateNTTPrimes(30, 10, 1)[0]
	for _, n := range []int{0, 1, 3, 12} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewTable(%d, q) did not panic", n)
				}
			}()
			NewTable(n, q)
		}()
	}
	// q not ≡ 1 mod 2N must panic.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("NewTable with NTT-unfriendly modulus did not panic")
			}
		}()
		NewTable(1024, 65537+2) // 65539 is prime but 2048 does not divide 65538
	}()
}

func TestForwardInverseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{2, 8, 64, 256, 1024} {
		for _, bitsz := range []int{17, 30, 45} {
			q := primes.GenerateNTTPrimes(bitsz, log2(n), 1)[0]
			tab := NewTable(n, q)
			a := randomPoly(n, q, rng)
			orig := append([]uint64(nil), a...)
			tab.Forward(a)
			tab.Inverse(a)
			for i := range a {
				if a[i] != orig[i] {
					t.Fatalf("n=%d q=%d: roundtrip mismatch at %d: %d != %d", n, q, i, a[i], orig[i])
				}
			}
		}
	}
}

// nttMul returns the negacyclic product a·b mod (X^N+1, q) the way the
// ring computes it: Forward both operands, multiply pointwise (MulVec),
// Inverse. a and b are left untouched.
func nttMul(tab *Table, a, b []uint64) []uint64 {
	ta := append([]uint64(nil), a...)
	tb := append([]uint64(nil), b...)
	tab.Forward(ta)
	tab.Forward(tb)
	out := make([]uint64, len(a))
	tab.Mod.MulVec(out, ta, tb)
	tab.Inverse(out)
	return out
}

func TestMulPolyMatchesSchoolbook(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{4, 16, 64, 128} {
		q := primes.GenerateNTTPrimes(30, log2(n), 1)[0]
		tab := NewTable(n, q)
		for trial := 0; trial < 5; trial++ {
			a := randomPoly(n, q, rng)
			b := randomPoly(n, q, rng)
			want := schoolbookNegacyclic(a, b, tab.Mod)
			got := nttMul(tab, a, b)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("n=%d trial=%d: coeff %d: got %d want %d", n, trial, i, got[i], want[i])
				}
			}
		}
	}
}

// TestNTTLinearity: NTT(a + b) == NTT(a) + NTT(b), via testing/quick over
// random polynomial pairs.
func TestNTTLinearity(t *testing.T) {
	const n = 64
	q := primes.GenerateNTTPrimes(30, log2(n), 1)[0]
	tab := NewTable(n, q)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomPoly(n, q, rng)
		b := randomPoly(n, q, rng)
		sum := make([]uint64, n)
		tab.Mod.AddVec(sum, a, b)
		tab.Forward(sum)
		tab.Forward(a)
		tab.Forward(b)
		for i := range sum {
			if sum[i] != tab.Mod.Add(a[i], b[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestNegacyclicWrap verifies the defining property X^N ≡ -1: multiplying by
// X rotates coefficients with a sign flip on wrap-around.
func TestNegacyclicWrap(t *testing.T) {
	const n = 32
	q := primes.GenerateNTTPrimes(30, log2(n), 1)[0]
	tab := NewTable(n, q)
	rng := rand.New(rand.NewSource(3))
	a := randomPoly(n, q, rng)
	x := make([]uint64, n) // the monomial X
	x[1] = 1
	got := nttMul(tab, a, x)
	if got[0] != tab.Mod.Neg(a[n-1]) {
		t.Fatalf("wrap coefficient: got %d want %d", got[0], tab.Mod.Neg(a[n-1]))
	}
	for i := 1; i < n; i++ {
		if got[i] != a[i-1] {
			t.Fatalf("shift coefficient %d: got %d want %d", i, got[i], a[i-1])
		}
	}
}

func TestTransformPanicsOnWrongLength(t *testing.T) {
	q := primes.GenerateNTTPrimes(30, 5, 1)[0]
	tab := NewTable(32, q)
	for _, f := range []func([]uint64){tab.Forward, tab.Inverse} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("wrong-length transform did not panic")
				}
			}()
			f(make([]uint64, 16))
		}()
	}
}

func log2(n int) int {
	l := 0
	for 1<<uint(l) < n {
		l++
	}
	return l
}

func BenchmarkForwardN8192(b *testing.B) {
	q := primes.GenerateNTTPrimes(30, 13, 1)[0]
	tab := NewTable(8192, q)
	rng := rand.New(rand.NewSource(5))
	a := randomPoly(8192, q, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.Forward(a)
	}
}

func BenchmarkInverseN8192(b *testing.B) {
	q := primes.GenerateNTTPrimes(30, 13, 1)[0]
	tab := NewTable(8192, q)
	rng := rand.New(rand.NewSource(6))
	a := randomPoly(8192, q, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.Inverse(a)
	}
}

func BenchmarkForwardN16384(b *testing.B) {
	q := primes.GenerateNTTPrimes(36, 14, 1)[0]
	tab := NewTable(16384, q)
	rng := rand.New(rand.NewSource(7))
	a := randomPoly(16384, q, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.Forward(a)
	}
}

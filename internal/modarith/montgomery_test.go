package modarith

import (
	"math/big"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// oddTestPrimes are the Montgomery-capable subset of the word sizes the
// parameter sets use, plus primes chosen to sit at the overflow boundaries
// of the lazy-reduction contract: q just under the 2^62 ceiling (so 2q
// crowds 2^63) and tiny primes that stress the correction paths.
var oddTestPrimes = []uint64{
	3, 17, 257, 65537,
	1073479681,          // 30-bit NTT-friendly
	68719403009,         // 36-bit
	18014398508400641,   // 54-bit
	4611686018326724609, // close to the 2^62 ceiling
	4611686018427387847, // largest prime below 2^62
}

// bigMod reduces the product a*b modulo q with math/big — the independent
// oracle every Montgomery identity below is checked against.
func bigMulMod(a, b, q uint64) uint64 {
	var x, y big.Int
	x.SetUint64(a)
	y.SetUint64(b)
	x.Mul(&x, &y)
	x.Mod(&x, new(big.Int).SetUint64(q))
	return x.Uint64()
}

// boundaryResidues returns the residues that sit on the edges of the REDC
// bound analysis for q: 0, 1, q-1 (the worst-case operand), and values near
// 2^63 and 2^64-1 for the "arbitrary 64-bit a" side of MRedLazy.
func boundaryResidues(q uint64) []uint64 {
	return []uint64{0, 1, 2, q - 1, q - 2, q / 2, q/2 + 1}
}

func TestMRedMatchesBigInt(t *testing.T) {
	for _, q := range oddTestPrimes {
		m := NewModulus(q)
		// MRed(a, b) must equal a·b·2^-64 mod q. Check via the
		// equivalent forward identity MRed(a, MForm(b)) = a·b mod q,
		// with math/big computing the right-hand side.
		rng := rand.New(rand.NewSource(int64(q)))
		check := func(a, b uint64) {
			got := m.MRed(a, m.MForm(b))
			want := bigMulMod(a, b%q, q)
			if got != want {
				t.Fatalf("q=%d MRed(%d, MForm(%d))=%d want %d", q, a, b, got, want)
			}
		}
		for _, a := range boundaryResidues(q) {
			for _, b := range boundaryResidues(q) {
				check(a, b)
			}
			// MRed's first operand may be any 64-bit value.
			check(^uint64(0), a)
			check(1<<63, a)
		}
		for i := 0; i < 300; i++ {
			check(rng.Uint64(), rng.Uint64()%q)
		}
	}
}

func TestMRedLazyBound(t *testing.T) {
	for _, q := range oddTestPrimes {
		m := NewModulus(q)
		rng := rand.New(rand.NewSource(7))
		check := func(a, b uint64) {
			lazy := m.MRedLazy(a, b)
			if lazy >= 2*q {
				t.Fatalf("q=%d MRedLazy(%d,%d)=%d outside [0,2q)", q, a, b, lazy)
			}
			full := lazy
			if full >= q {
				full -= q
			}
			if got := m.MRed(a, b); got != full {
				t.Fatalf("q=%d MRedLazy(%d,%d) reduces to %d, MRed gives %d", q, a, b, full, got)
			}
		}
		// Worst cases for the bound: both operands at their maxima.
		check(^uint64(0), q-1)
		check(q-1, q-1)
		check(1<<63, q-1)
		for i := 0; i < 300; i++ {
			check(rng.Uint64(), rng.Uint64()%q)
		}
	}
}

// TestMFormRoundTrip: MForm(a) is reduced and equals a·2^64 mod q by
// math/big, for boundary residues and arbitrary 64-bit a.
func TestMFormRoundTrip(t *testing.T) {
	for _, q := range oddTestPrimes {
		m := NewModulus(q)
		rng := rand.New(rand.NewSource(11))
		check := func(a uint64) {
			mont := m.MForm(a)
			if mont >= q {
				t.Fatalf("q=%d MForm(%d)=%d not reduced", q, a, mont)
			}
			// MForm must agree with math/big: a·2^64 mod q.
			var x big.Int
			x.SetUint64(a)
			x.Lsh(&x, 64)
			x.Mod(&x, new(big.Int).SetUint64(q))
			if mont != x.Uint64() {
				t.Fatalf("q=%d MForm(%d)=%d want %d", q, a, mont, x.Uint64())
			}
		}
		for _, a := range boundaryResidues(q) {
			check(a)
		}
		check(^uint64(0))
		for i := 0; i < 200; i++ {
			check(rng.Uint64())
		}
	}
}

func TestMRedProperty(t *testing.T) {
	// Randomized property over all odd primes at once: REDC of a plain
	// operand against a Montgomery-form key equals the plain product, for
	// arbitrary 64-bit a. This is the exact identity the keyswitch MACs
	// rely on to keep ciphertext digests unchanged.
	cfg := &quick.Config{MaxCount: 2000}
	f := func(a, b uint64, pick uint8) bool {
		q := oddTestPrimes[int(pick)%len(oddTestPrimes)]
		m := NewModulus(q)
		return m.MRed(a, m.MForm(b%q)) == bigMulMod(a, b%q, q)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestMaxLazyAdds(t *testing.T) {
	// Near the 2^62 ceiling, 2q crowds 2^63 so only a couple of lazy terms
	// fit; the bound must be exact.
	m := NewModulus(4611686018427387847)
	if got := m.MaxLazyAdds(); got != 2 {
		t.Fatalf("MaxLazyAdds near 2^62 = %d, want 2", got)
	}
	// A 30-bit prime allows billions of lazy terms; just check it is huge.
	m = NewModulus(1073479681)
	if got := m.MaxLazyAdds(); got < 1<<32 {
		t.Fatalf("MaxLazyAdds for 30-bit prime = %d, want > 2^32", got)
	}
	// The contract itself: k lazy terms (each < 2q) fit a uint64, and
	// unless clamped to MaxInt, k+1 terms of 2q would wrap. Checked in
	// math/big so the products cannot themselves overflow.
	for _, q := range oddTestPrimes {
		k := uint64(NewModulus(q).MaxLazyAdds())
		twoQ := new(big.Int).SetUint64(2 * q)
		word := new(big.Int).SetUint64(^uint64(0))
		sum := new(big.Int).Mul(new(big.Int).SetUint64(k), twoQ)
		if sum.Cmp(word) > 0 {
			t.Fatalf("q=%d: %d lazy terms of 2q overflow uint64", q, k)
		}
		next := new(big.Int).Mul(new(big.Int).SetUint64(k+1), twoQ)
		if k != uint64(int(^uint(0)>>1)) && next.Cmp(word) <= 0 {
			t.Fatalf("q=%d: MaxLazyAdds=%d undershoots capacity", q, k)
		}
	}
}

func TestMontgomeryVecKernels(t *testing.T) {
	for _, q := range oddTestPrimes {
		m := NewModulus(q)
		rng := rand.New(rand.NewSource(int64(q) ^ 0x5eed))
		// Lengths straddling the unroll width exercise both the array
		// blocks and the tails.
		for _, n := range []int{1, 7, 8, 9, 64, 100} {
			a := make([]uint64, n)
			b := make([]uint64, n)
			for i := range a {
				a[i] = rng.Uint64() % q
				b[i] = rng.Uint64() % q
			}
			// Force boundary residues into the first lanes.
			if n >= 2 {
				a[0], b[0] = q-1, q-1
				a[1], b[1] = 0, q-1
			}

			bMont := make([]uint64, n)
			m.MFormVec(bMont, b)
			for i := range b {
				if bMont[i] != m.MForm(b[i]) {
					t.Fatalf("q=%d MFormVec[%d] mismatch", q, i)
				}
			}

			got := make([]uint64, n)
			m.MulMontVec(got, a, bMont)
			for i := range got {
				if want := bigMulMod(a[i], b[i], q); got[i] != want {
					t.Fatalf("q=%d MulMontVec[%d]=%d want %d", q, i, got[i], want)
				}
			}

			// Lazy MAC: accumulate up to the lazy budget, reduce, and
			// compare with a fully-reduced Barrett accumulation.
			acc := make([]uint64, n)
			ref := make([]uint64, n)
			rounds := 3
			if mb := m.MaxLazyAdds(); rounds > mb {
				rounds = mb
			}
			for r := 0; r < rounds; r++ {
				m.MulMontAddLazyVec(acc, a, bMont)
				m.MulAddVec(ref, a, b)
			}
			m.ReduceVec(acc, acc)
			for i := range acc {
				if acc[i] != ref[i] {
					t.Fatalf("q=%d lazy MAC[%d]=%d want %d after %d rounds", q, i, acc[i], ref[i], rounds)
				}
			}

			// Scalar lazy MAC: a broadcast constant deposits the same
			// unreduced terms as MulMontAddLazyVec of the broadcast row,
			// and the two kernels mix under one lazy budget.
			s := b[n-1]
			row := make([]uint64, n)
			for i := range row {
				row[i] = m.MForm(s)
			}
			accS := make([]uint64, n)
			accV := make([]uint64, n)
			ref = make([]uint64, n)
			for r := 0; r < rounds; r++ {
				m.MulMontScalarAddLazyVec(accS, a, m.MForm(s))
				m.MulMontAddLazyVec(accV, a, row)
				if !slices.Equal(accS, accV) {
					t.Fatalf("q=%d scalar lazy MAC differs from the broadcast row after %d terms", q, r+1)
				}
				if r%2 == 1 {
					m.MulMontAddLazyVec(accS, a, bMont)
					m.MulMontAddLazyVec(accV, a, bMont)
				}
			}
			for r := 0; r < rounds; r++ {
				for i := range ref {
					ref[i] = m.Add(ref[i], m.Mul(a[i], s))
				}
				if r%2 == 1 {
					m.MulAddVec(ref, a, b)
				}
			}
			if rounds+rounds/2 <= m.MaxLazyAdds() {
				m.ReduceVec(accS, accS)
				if !slices.Equal(accS, ref) {
					t.Fatalf("q=%d mixed scalar/row lazy MAC %v want %v", q, accS, ref)
				}
			}
		}
	}
}

var montSink uint64

func BenchmarkMulMontgomery(b *testing.B) {
	m := NewModulus(1073479681)
	x := m.MForm(123456789)
	var acc uint64 = 987654321
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		acc = m.MRed(acc, x)
	}
	montSink = acc
}

package ring

import (
	"testing"

	"fxhenn/internal/primes"
)

// TestNTTAutomorphismMatchesCoefficientDomain: permuting NTT values with
// NTTAutomorphismIndex equals the coefficient-domain automorphism followed
// by a forward NTT.
func TestNTTAutomorphismMatchesCoefficientDomain(t *testing.T) {
	r := NewRing(64, primes.GenerateNTTPrimes(30, 6, 2))
	s := NewSampler(r, 1)
	for _, g := range []uint64{5, 25, 3, uint64(2*r.N - 1)} {
		a := s.Uniform(2)

		// Reference: coefficient-domain automorphism, then NTT.
		want := r.NewPoly(2)
		r.Automorphism(want, a, g)
		r.NTT(want)

		// NTT-domain permutation.
		an := a.Copy()
		r.NTT(an)
		got := r.NewPoly(2)
		r.PermuteNTT(got, an, r.NTTAutomorphismIndex(g))

		if !r.Equal(got, want) {
			t.Fatalf("g=%d: NTT-domain automorphism mismatch", g)
		}

		// The accumulating form equals the permutation plus Add.
		acc := s.Uniform(2)
		r.Add(want, got, acc)
		r.PermuteNTTAdd(acc, an, r.NTTAutomorphismIndex(g))
		if !r.Equal(acc, want) {
			t.Fatalf("g=%d: PermuteNTTAdd differs from PermuteNTT then Add", g)
		}
	}
}

// TestNTTAutomorphismIndexIsPermutation: the index map is a bijection.
func TestNTTAutomorphismIndexIsPermutation(t *testing.T) {
	r := NewRing(128, primes.GenerateNTTPrimes(30, 7, 1))
	for _, g := range []uint64{5, 125, uint64(2*r.N - 1)} {
		perm := r.NTTAutomorphismIndex(g)
		seen := make([]bool, r.N)
		for _, p := range perm {
			if p < 0 || p >= r.N || seen[p] {
				t.Fatalf("g=%d: not a permutation", g)
			}
			seen[p] = true
		}
	}
	// Identity element.
	perm := r.NTTAutomorphismIndex(1)
	for j, p := range perm {
		if j != p {
			t.Fatal("g=1 is not the identity permutation")
		}
	}
}

func TestNTTAutomorphismRejectsEven(t *testing.T) {
	r := NewRing(16, primes.GenerateNTTPrimes(30, 4, 1))
	defer func() {
		if recover() == nil {
			t.Fatal("even g did not panic")
		}
	}()
	r.NTTAutomorphismIndex(4)
}

func TestPermuteNTTValidation(t *testing.T) {
	r := NewRing(16, primes.GenerateNTTPrimes(30, 4, 1))
	a := r.NewPoly(1)
	defer func() {
		if recover() == nil {
			t.Fatal("in-place PermuteNTT did not panic")
		}
	}()
	r.PermuteNTT(a, a, r.NTTAutomorphismIndex(5))
}

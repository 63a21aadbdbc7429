package ring

import (
	"math/bits"
	"math/rand"
)

// Sampler draws the random polynomials RLWE needs: uniform masks, ternary
// secrets, and centered-binomial errors standing in for a discrete Gaussian.
// Determinism (math/rand with an explicit seed) is deliberate: the
// reproduction harness must be replayable, and cryptographic-strength
// randomness adds nothing to the evaluation the paper performs.
type Sampler struct {
	r   *Ring
	rng *rand.Rand
}

// NewSampler creates a deterministic sampler over ring r.
func NewSampler(r *Ring, seed int64) *Sampler {
	return &Sampler{r: r, rng: rand.New(rand.NewSource(seed))}
}

// Uniform fills a fresh k-level polynomial with independent uniform residues.
func (s *Sampler) Uniform(k int) *Poly {
	p := s.r.NewPoly(k)
	for i := 0; i < k; i++ {
		q := s.r.Moduli[i]
		row := p.Coeffs[i]
		for j := range row {
			row[j] = s.rng.Uint64() % q
		}
	}
	return p
}

// Ternary samples a secret with coefficients in {-1, 0, +1}, each nonzero
// with probability 2/3, replicated consistently across all k residue rows.
func (s *Sampler) Ternary(k int) *Poly { return s.TernaryFrom(nil, k) }

// TernaryFrom is Ternary into rows taken from rows (Ring.NewPolyFrom).
func (s *Sampler) TernaryFrom(rows *Rows, k int) *Poly {
	p := s.r.NewPolyFrom(rows, k)
	for j := 0; j < s.r.N; j++ {
		v := s.rng.Intn(3) - 1 // -1, 0, or 1
		s.setSmall(p, j, int64(v))
	}
	return p
}

// Error samples a centered binomial error of standard deviation ≈ 3.2
// (the usual RLWE error width), consistent across residue rows.
func (s *Sampler) Error(k int) *Poly { return s.ErrorFrom(nil, k) }

// ErrorFrom is Error into rows taken from rows (Ring.NewPolyFrom).
func (s *Sampler) ErrorFrom(rows *Rows, k int) *Poly {
	p := s.r.NewPolyFrom(rows, k)
	for j := 0; j < s.r.N; j++ {
		// CBD(21): sum of 21 coin differences has variance 21/2 ≈ 3.24^2.
		x := s.rng.Uint32() & ((1 << 21) - 1)
		y := s.rng.Uint32() & ((1 << 21) - 1)
		v := int64(bits.OnesCount32(x)) - int64(bits.OnesCount32(y))
		s.setSmall(p, j, v)
	}
	return p
}

// setSmall writes the small signed integer v into coefficient j of every
// residue row.
func (s *Sampler) setSmall(p *Poly, j int, v int64) {
	for i := range p.Coeffs {
		q := s.r.Moduli[i]
		if v >= 0 {
			p.Coeffs[i][j] = uint64(v) % q
		} else {
			p.Coeffs[i][j] = q - (uint64(-v) % q)
			if p.Coeffs[i][j] == q {
				p.Coeffs[i][j] = 0
			}
		}
	}
}

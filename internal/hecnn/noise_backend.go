package hecnn

import (
	"fxhenn/internal/ckks"
)

// Noise-estimation backend: walks the network through the same layer code
// as the crypto and dry-run backends, but propagates analytic CKKS
// error bounds instead of ciphertexts. The result predicts — without any
// cryptography — whether a network's depth and value ranges survive a
// parameter set (used before provisioning hardware or burning CPU time on
// a functional run).

type noiseBackend struct {
	model *ckks.NoiseModel
}

// NewNoiseBackend returns a Backend that propagates noise estimates.
func NewNoiseBackend(params ckks.Parameters) Backend {
	return &noiseBackend{model: ckks.NewNoiseModel(params)}
}

func (b *noiseBackend) SetLayer(string) {}

func maxAbs(v []float64) float64 {
	m := 0.0
	for _, x := range v {
		if x > m {
			m = x
		}
		if -x > m {
			m = -x
		}
	}
	return m
}

func (b *noiseBackend) PCmult(x *CT, w Plain) *CT {
	est := b.model.MulPlain(*x.noise, maxAbs(w.Make()))
	return &CT{level: est.Level, scale: est.Scale, noise: &est}
}

func (b *noiseBackend) PCadd(x *CT, w Plain) *CT {
	wMax := maxAbs(w.Make())
	est := *x.noise
	est.MaxVal += wMax
	// The plaintext adds its own encoding error.
	fresh := b.model.Fresh(0, x.noise.Level)
	est.Err += fresh.Err / 2 // encode-only term; no encryption noise
	return &CT{level: est.Level, scale: est.Scale, noise: &est}
}

func (b *noiseBackend) CCadd(x, y *CT) *CT {
	est := b.model.Add(*x.noise, *y.noise)
	return &CT{level: est.Level, scale: est.Scale, noise: &est}
}

func (b *noiseBackend) Square(x *CT) *CT {
	est := b.model.Square(*x.noise)
	return &CT{level: est.Level, scale: est.Scale, noise: &est}
}

func (b *noiseBackend) Rescale(x *CT) *CT {
	est := b.model.Rescale(*x.noise)
	return &CT{level: est.Level, scale: est.Scale, noise: &est}
}

func (b *noiseBackend) Rotate(x *CT, k int) *CT {
	if k == 0 {
		return x
	}
	est := b.model.Rotate(*x.noise)
	return &CT{level: est.Level, scale: est.Scale, noise: &est}
}

// RotateMany: hoisted and chained rotations carry the same keyswitch noise
// bound per rotation, so the estimate is just the per-k model.
func (b *noiseBackend) RotateMany(x *CT, ks []int) []*CT { return rotateEach(b, x, ks) }

// EstimatePrecision predicts the output error bound of the network for
// inputs bounded by inputMax, along with whether every intermediate stays
// within the modulus capacity.
func (n *Network) EstimatePrecision(params ckks.Parameters, inputMax float64) (ckks.NoiseEstimate, bool) {
	model := ckks.NewNoiseModel(params)
	b := &noiseBackend{model: model}

	// The estimate is never mutated in place, so every input can share it.
	fresh := model.Fresh(inputMax, params.MaxLevel())
	s := &State{Kind: Contiguous, CTs: n.freshInputs(CT{level: fresh.Level, scale: fresh.Scale, noise: &fresh})}

	ok := true
	for _, l := range n.Layers {
		s = l.Apply(b, s)
		for _, ct := range s.CTs {
			if !model.CapacityOK(*ct.noise) {
				ok = false
			}
		}
	}
	// The final state is a single ciphertext by network contract.
	return *s.CTs[0].noise, ok
}

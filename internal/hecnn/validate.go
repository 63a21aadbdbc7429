package hecnn

import (
	"fmt"
	"math"

	"fxhenn/internal/cnn"
)

// Input and ciphertext validation for the serving path. The layer kernels
// themselves panic on structural violations (wrong packed-input count,
// scale drift) because inside a compiled pipeline those are programming
// errors; a server accepting ciphertexts from the network needs to reject
// the same conditions as data errors *before* evaluation starts, so a
// hostile or corrupt request costs a header check instead of a recovered
// panic deep in the evaluator.

// ValidateInput checks that img matches the compiled network's expected
// input geometry and contains only finite values.
func (n *Network) ValidateInput(img *cnn.Tensor) error {
	if img == nil {
		return fmt.Errorf("hecnn: nil input tensor")
	}
	c := n.CNN
	if img.C != c.InC || img.H != c.InH || img.W != c.InW {
		return fmt.Errorf("hecnn: input shape (%d,%d,%d) does not match network %q input (%d,%d,%d)",
			img.C, img.H, img.W, n.Name, c.InC, c.InH, c.InW)
	}
	if len(img.Data) != img.C*img.H*img.W {
		return fmt.Errorf("hecnn: input tensor data length %d inconsistent with shape (%d,%d,%d)",
			len(img.Data), img.C, img.H, img.W)
	}
	for i, v := range img.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("hecnn: input element %d is not finite (%g)", i, v)
		}
	}
	return nil
}

// ValidateCiphertexts checks a packed encrypted request before evaluation:
// the ciphertext count must match the first convolution's packing, and
// every ciphertext must be a fresh degree-1 ciphertext at exactly level —
// the level the client is required to encrypt at, and the level the
// compiled rescale schedule consumes from.
func (n *Network) ValidateCiphertexts(cts []*CT, level int) error {
	conv, ok := n.Layers[0].(*ConvPacked)
	if !ok {
		return fmt.Errorf("hecnn: network %q does not start with a packed convolution", n.Name)
	}
	if len(cts) != conv.NumPositions() {
		return fmt.Errorf("hecnn: expected %d packed ciphertexts, got %d", conv.NumPositions(), len(cts))
	}
	return validateFresh(cts, level)
}

// validateFresh checks that every ciphertext is a fresh degree-1
// ciphertext at exactly level with a plausible scale.
func validateFresh(cts []*CT, level int) error {
	for i, ct := range cts {
		if ct == nil || ct.Ciphertext() == nil {
			return fmt.Errorf("hecnn: ciphertext %d is nil", i)
		}
		raw := ct.Ciphertext()
		if d := raw.Degree(); d != 1 {
			return fmt.Errorf("hecnn: ciphertext %d has degree %d, want a fresh (c0,c1) pair", i, d)
		}
		if l := raw.Level(); l != level {
			return fmt.Errorf("hecnn: ciphertext %d at level %d, want %d", i, l, level)
		}
		if s := raw.Scale; s <= 0 || math.IsNaN(s) || math.IsInf(s, 0) {
			return fmt.Errorf("hecnn: ciphertext %d has implausible scale %g", i, s)
		}
	}
	return nil
}

// RunChecked is Run with the panics of the evaluation pipeline converted
// to errors: the input is validated up front, and any failure inside the
// layer kernels (scale mismatch, missing rotation key, level exhaustion)
// is recovered and reported instead of crashing the caller. Batch
// drivers — workload.EvaluateAgreement, the MLaaS server — use this
// entry point; Run stays panicking for compiled-in pipelines where a
// violation is a bug.
func (n *Network) RunChecked(ctx *Context, img *cnn.Tensor) (logits []float64, rec *Recorder, err error) {
	if verr := n.ValidateInput(img); verr != nil {
		return nil, nil, verr
	}
	defer func() {
		if r := recover(); r != nil {
			logits, rec = nil, nil
			err = fmt.Errorf("hecnn: encrypted evaluation failed: %v", r)
		}
	}()
	logits, rec = n.Run(ctx, img)
	return logits, rec, nil
}

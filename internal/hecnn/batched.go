package hecnn

import (
	"fmt"

	"fxhenn/internal/ckks"
	"fxhenn/internal/cnn"
)

// CryptoNets-style batched packing (§II-B): instead of packing one image's
// pixels into few ciphertexts (LoLa, low latency), pack MANY images into
// every ciphertext — one ciphertext per tensor position, slot b holding
// image b's value at that position. Linear layers become scalar
// plaintext-multiply-accumulates with no rotations at all (the only
// KeySwitch left is the relinearization inside Square), at the cost of
// ciphertext count proportional to the tensor size: enormous latency per
// batch, enormous throughput per image. The paper contrasts exactly this
// trade (CryptoNets' 205 s vs LoLa's 2.2 s, §VII-B); implementing both
// packings under one Backend demonstrates the framework's "different data
// packing schemes" generality claim.
//
// Because a batched ciphertext only needs one slot per image, the packing
// also decouples the ring degree from the image geometry: a batch of B
// images can run on the smallest ring with ≥ B slots (BatchedParams),
// while the LoLa path's ring must fit a whole image's windows. That ring
// right-sizing, together with the amortization across slots, is where
// the batched path's per-image throughput comes from.
//
// Every function on this path that consumes caller-controlled sizes —
// CompileBatched, PackBatch, RunBatch — returns errors instead of
// panicking: batch sizes and image shapes are data, so violations are
// data errors, not bugs (the same split validate.go documents for the
// LoLa path).

// BatchedNetwork evaluates a CNN under position-major batched packing.
type BatchedNetwork struct {
	Name  string
	Slots int // batch capacity
	CNN   *cnn.Network

	prog *program
}

// CompileBatched wraps a plaintext CNN for batched evaluation, rejecting
// empty networks, non-positive slot capacities, and layer types the
// batched evaluator does not support (conv, dense, square, pool are the
// full substrate today), and lowers it once into its program.
func CompileBatched(c *cnn.Network, slots int) (*BatchedNetwork, error) {
	if c == nil || len(c.Layers) == 0 {
		return nil, fmt.Errorf("hecnn: batched compile of empty network")
	}
	if slots < 1 {
		return nil, fmt.Errorf("hecnn: batched slot capacity %d, need at least 1", slots)
	}
	for _, l := range c.Layers {
		switch l.(type) {
		case *cnn.Conv2D, *cnn.Dense, *cnn.Square, *cnn.AvgPool2D:
		default:
			return nil, fmt.Errorf("hecnn: unsupported batched layer type %T (%s)", l, l.Name())
		}
	}
	n := &BatchedNetwork{Name: c.Name + "-batched", Slots: slots, CNN: c}
	n.prog = n.lower()
	return n, nil
}

// InputSize returns the number of position-major ciphertexts one batch
// carries: the flat input tensor size.
func (n *BatchedNetwork) InputSize() int { return n.CNN.InC * n.CNN.InH * n.CNN.InW }

// validateImage checks one image against the network's input geometry.
func (n *BatchedNetwork) validateImage(b int, img *cnn.Tensor) error {
	if img == nil {
		return fmt.Errorf("hecnn: batch image %d is nil", b)
	}
	c := n.CNN
	if img.C != c.InC || img.H != c.InH || img.W != c.InW {
		return fmt.Errorf("hecnn: batch image %d shape (%d,%d,%d) does not match network %q input (%d,%d,%d)",
			b, img.C, img.H, img.W, n.Name, c.InC, c.InH, c.InW)
	}
	if len(img.Data) != n.InputSize() {
		return fmt.Errorf("hecnn: batch image %d data length %d inconsistent with shape", b, len(img.Data))
	}
	return nil
}

// PackBatch transposes a batch of images into position-major slot vectors:
// out[p][b] = image b's value at flat position p. The batch size and every
// image's shape are caller-controlled, so violations are returned, not
// panicked.
func (n *BatchedNetwork) PackBatch(images []*cnn.Tensor) ([][]float64, error) {
	if len(images) == 0 || len(images) > n.Slots {
		return nil, fmt.Errorf("hecnn: batch size %d outside [1,%d]", len(images), n.Slots)
	}
	for b, img := range images {
		if err := n.validateImage(b, img); err != nil {
			return nil, err
		}
	}
	size := n.InputSize()
	out := make([][]float64, size)
	for p := 0; p < size; p++ {
		v := make([]float64, len(images))
		for b, img := range images {
			v[b] = img.Data[p]
		}
		out[p] = v
	}
	return out, nil
}

// BatchRotations returns the right-rotations by 1..capacity-1, which move
// slot 0 into each other slot of a batch of that capacity. The batched
// program itself rotates nothing; a key set generated for these amounts
// can place a single-slot ciphertext into any batch slot.
func BatchRotations(capacity int) []int {
	if capacity < 2 {
		return nil
	}
	ks := make([]int, 0, capacity-1)
	for b := 1; b < capacity; b++ {
		ks = append(ks, -b)
	}
	return ks
}

// BatchedParams derives the CKKS instantiation for a batched evaluation
// from the per-request parameter set: the same modulus chain (depth,
// prime and special-prime sizes — the rescale schedule must support the
// same network), on the smallest ring with at least capacity slots. A
// batched ciphertext needs one slot per image, not one per window, so the
// ring degree decouples from the image geometry — the CryptoNets trade
// the package comment describes. Note the reproduction derives the degree
// purely from capacity; a production deployment would also floor it at
// the security-mandated minimum and amortize over thousands of slots.
func BatchedParams(base ckks.Parameters, capacity int) (ckks.Parameters, error) {
	if capacity < 1 {
		return ckks.Parameters{}, fmt.Errorf("hecnn: batch capacity %d, need at least 1", capacity)
	}
	if capacity > 1<<16 {
		return ckks.Parameters{}, fmt.Errorf("hecnn: batch capacity %d exceeds supported maximum %d", capacity, 1<<16)
	}
	logN := 4 // smallest degree the NTT prime generator is comfortable with
	for (1 << (logN - 1)) < capacity {
		logN++
	}
	return ckks.NewParameters(logN, base.QBits, base.L, base.PBits), nil
}

// broadcast returns the constant Plain filling every slot with w.
func broadcast(w float64) Plain { return Plain{IsConst: true, Const: w} }

// lower runs the batched layer code once against the recording backend:
// per output position, a scalar plaintext multiply-accumulate over its
// inputs (conv, dense, pool), or a square per ciphertext.
func (n *BatchedNetwork) lower() *program {
	b, cur := newLowering(n.InputSize())
	ch, hh, ww := n.CNN.InC, n.CNN.InH, n.CNN.InW
	for _, l := range n.CNN.Layers {
		switch layer := l.(type) {
		case *cnn.Conv2D:
			oc, oh, ow := layer.OutShape(ch, hh, ww)
			next := make([]*CT, oc*oh*ow)
			for m := 0; m < oc; m++ {
				for y := 0; y < oh; y++ {
					for x := 0; x < ow; x++ {
						var acc *CT
						for ic := 0; ic < layer.InC; ic++ {
							for ky := 0; ky < layer.Kernel; ky++ {
								iy := y*layer.Stride + ky - layer.Pad
								if iy < 0 || iy >= hh {
									continue
								}
								for kx := 0; kx < layer.Kernel; kx++ {
									ix := x*layer.Stride + kx - layer.Pad
									if ix < 0 || ix >= ww {
										continue
									}
									w := layer.Weight(m, ic, ky, kx)
									t := b.PCmult(cur[(ic*hh+iy)*ww+ix], broadcast(w))
									acc = accumulate(b, acc, t)
								}
							}
						}
						acc = b.Rescale(acc)
						acc = b.PCadd(acc, broadcast(layer.Bias[m]))
						next[(m*oh+y)*ow+x] = acc
					}
				}
			}
			cur, ch, hh, ww = next, oc, oh, ow
		case *cnn.Dense:
			next := make([]*CT, layer.Out)
			for o := 0; o < layer.Out; o++ {
				var acc *CT
				for i := 0; i < layer.In; i++ {
					t := b.PCmult(cur[i], broadcast(layer.Weight(o, i)))
					acc = accumulate(b, acc, t)
				}
				acc = b.Rescale(acc)
				next[o] = b.PCadd(acc, broadcast(layer.Bias[o]))
			}
			cur, ch, hh, ww = next, layer.Out, 1, 1
		case *cnn.Square:
			next := make([]*CT, len(cur))
			for i, ct := range cur {
				next[i] = b.Rescale(b.Square(ct))
			}
			cur = next
		case *cnn.AvgPool2D:
			oc, oh, ow := layer.OutShape(ch, hh, ww)
			norm := 1.0 / float64(layer.Window*layer.Window)
			next := make([]*CT, oc*oh*ow)
			for c := 0; c < oc; c++ {
				for y := 0; y < oh; y++ {
					for x := 0; x < ow; x++ {
						var acc *CT
						for dy := 0; dy < layer.Window; dy++ {
							for dx := 0; dx < layer.Window; dx++ {
								in := cur[(c*hh+y*layer.Window+dy)*ww+x*layer.Window+dx]
								acc = accumulate(b, acc, in)
							}
						}
						t := b.PCmult(acc, broadcast(norm))
						next[(c*oh+y)*ow+x] = b.Rescale(t)
					}
				}
			}
			cur, ch, hh, ww = next, oc, oh, ow
		}
		b.endLayer(l.Name(), cur)
	}
	return b.finish()
}

// Evaluate runs the batched network's program over per-position
// ciphertext handles, returning one handle per logit.
func (n *BatchedNetwork) Evaluate(b Backend, cts []*CT) []*CT {
	vals := n.prog.run(b, cts, nil, false)
	outs := make([]*CT, len(n.prog.outputs()))
	for i, v := range n.prog.outputs() {
		outs[i] = vals[v]
	}
	return outs
}

// RunBatch encrypts a batch, evaluates it, and returns per-image logits
// out[b][class] together with the trace. Evaluation-pipeline panics
// (missing keys, level exhaustion from hostile parameters) are recovered
// into the returned error: batch sizes and images are caller-controlled.
func (n *BatchedNetwork) RunBatch(ctx *Context, images []*cnn.Tensor) ([][]float64, *Recorder, error) {
	rec := NewRecorder()
	logits, err := n.runBatch(ctx, images, NewCryptoBackend(ctx, rec))
	if err != nil {
		return nil, nil, err
	}
	return logits, rec, nil
}

// runBatch is the one batched run path: pack the images, encrypt,
// evaluate through b, and decode per-image logits, with evaluation panics
// recovered into err.
func (n *BatchedNetwork) runBatch(ctx *Context, images []*cnn.Tensor, b Backend) (logits [][]float64, err error) {
	packed, err := n.PackBatch(images)
	if err != nil {
		return nil, err
	}
	defer func() {
		if r := recover(); r != nil {
			logits, err = nil, fmt.Errorf("hecnn: batched evaluation failed: %v", r)
		}
	}()
	var cts []*CT
	for _, v := range packed {
		cts = append(cts, ctx.EncryptVector(v))
	}
	return decodeBatchLogits(ctx, n.Evaluate(b, cts), len(images)), nil
}

// decodeBatchLogits decrypts per-position logit ciphertexts into
// per-image logit rows: out[b][o] = slot b of logit ciphertext o.
func decodeBatchLogits(ctx *Context, outs []*CT, batch int) [][]float64 {
	logits := make([][]float64, batch)
	for bi := range logits {
		logits[bi] = make([]float64, len(outs))
	}
	for o, ct := range outs {
		vals := ctx.DecryptVector(ct)
		for bi := range logits {
			logits[bi][o] = vals[bi]
		}
	}
	return logits
}

// Count returns the batched evaluation's per-layer HE-operation trace from
// inputs at startLevel, folded over its program.
func (n *BatchedNetwork) Count(startLevel int) *Recorder {
	rec := NewRecorder()
	n.prog.count(startLevel, rec)
	return rec
}

package hecnn

import (
	"fmt"
	"slices"

	"fxhenn/internal/ckks"
	"fxhenn/internal/cnn"
)

// Network is an HE-CNN: an ordered list of HE layers compiled from a
// plaintext CNN for a given slot capacity, and the program CompileWith
// lowered them to. Every evaluation and every count, key set, cache and
// noise question reads the program; the layers are not run again.
type Network struct {
	Name   string
	Slots  int
	CNN    *cnn.Network
	Layers []Layer
	Opts   Options

	prog *program
}

// Options controls how a CNN is compiled into HE layers.
type Options struct {
	// BSGS compiles every interior and final linear layer (dense, interior
	// conv, pool) as a MatVecDiag baby-step/giant-step diagonal transform
	// instead of the rotate-and-sum ladder, cutting keyswitch counts from
	// O(rows·log cols) to O(√diagonals). A layer falls back to the ladder
	// when its diagonal plan costs more than the ladder or when its
	// geometry (rows+cols−1 > slots) aliases the cyclic diagonals; once an
	// interior layer falls back, the GroupSums layout forces the remaining
	// layers onto the ladder too. BSGS changes rotation counts and the
	// Galois key set, so counting, key generation, and evaluation must
	// share the flag. Off by default: the default pipeline and its golden
	// per-layer profiles are the ladder's.
	BSGS bool
}

// Compile translates a plaintext CNN into its packed homomorphic form:
//   - the first layer must be a convolution → ConvPacked (client-side
//     per-kernel-position packing, Listing 1);
//   - Square → SquareLayer;
//   - interior convolutions and dense layers → MatVecGroup over the
//     flattened equivalent matrix;
//   - the final dense layer → MatVecCollect (logits land in slots 0..out-1).
//
// The layers are then lowered, once, into the network's program.
func Compile(c *cnn.Network, slots int) *Network {
	return CompileWith(c, slots, Options{})
}

// CompileWith is Compile with explicit options (see Options).
func CompileWith(c *cnn.Network, slots int, opts Options) *Network {
	if len(c.Layers) == 0 {
		panic("hecnn: empty network")
	}
	if _, ok := c.Layers[0].(*cnn.Conv2D); !ok {
		panic("hecnn: first layer must be a convolution")
	}
	n := &Network{Name: c.Name, Slots: slots, CNN: c, Opts: opts}
	// bsgs tracks whether the diagonal path is still available: it starts
	// at opts.BSGS and degrades to false the first time an interior layer
	// falls back to the ladder, because the ladder's GroupSums output
	// layout is incompatible with MatVecDiag's Contiguous input.
	bsgs := opts.BSGS
	// matvec lowers one interior linear layer, choosing MatVecDiag when
	// the BSGS path is live and its compiled plan beats the ladder cost.
	matvec := func(name string, rows, cols int, weight func(r, c int) float64, bias func(r int) float64) Layer {
		if bsgs && rows+cols-1 <= slots {
			d := NewMatVecDiag(name, rows, cols, slots, weight, bias)
			if d.EstimatedCost() < ladderGroupCost(rows, cols, slots) {
				return d
			}
		}
		bsgs = false
		return NewMatVecGroup(name, rows, cols, slots, weight, bias)
	}

	// Track tensor shape through the network for conv flattening.
	ch, hh, ww := c.InC, c.InH, c.InW
	for i, l := range c.Layers {
		switch layer := l.(type) {
		case *cnn.Conv2D:
			if i == 0 {
				n.Layers = append(n.Layers, NewConvPacked(layer.Name(), layer, hh, ww, slots))
			} else {
				rows := prod3(layer.OutShape(ch, hh, ww))
				cols := ch * hh * ww
				_, oh, ow := layer.OutShape(ch, hh, ww)
				winPerMap := oh * ow
				n.Layers = append(n.Layers, matvec(
					layer.Name(), rows, cols,
					convMatrix(layer, ch, hh, ww),
					func(r int) float64 { return layer.Bias[r/winPerMap] },
				))
			}
			ch, hh, ww = layer.OutShape(ch, hh, ww)
		case *cnn.Square:
			n.Layers = append(n.Layers, &SquareLayer{LayerName: layer.Name()})
		case *cnn.AvgPool2D:
			// Average pooling is a fixed linear map: lower it to the
			// generic matvec over the flattened tensor.
			rows := prod3(layer.OutShape(ch, hh, ww))
			cols := ch * hh * ww
			n.Layers = append(n.Layers, matvec(
				layer.Name(), rows, cols,
				poolMatrix(layer, ch, hh, ww),
				func(int) float64 { return 0 },
			))
			ch, hh, ww = layer.OutShape(ch, hh, ww)
		case *cnn.Dense:
			if i == len(c.Layers)-1 {
				if bsgs {
					// The final layer's input is Contiguous (every
					// earlier linear layer compiled to MatVecDiag), so
					// the diagonal form is the only fit: MatVecCollect
					// needs GroupSums. Geometry always holds here —
					// logits must fit the slot count.
					n.Layers = append(n.Layers, NewMatVecDiag(
						layer.Name(), layer.Out, layer.In, slots,
						layer.Weight,
						func(r int) float64 { return layer.Bias[r] },
					))
				} else {
					n.Layers = append(n.Layers, &MatVecCollect{
						LayerName: layer.Name(),
						Rows:      layer.Out, Cols: layer.In,
						Weight: layer.Weight,
						Bias:   func(r int) float64 { return layer.Bias[r] },
						Slots:  slots,
					})
				}
			} else {
				n.Layers = append(n.Layers, matvec(
					layer.Name(), layer.Out, layer.In,
					layer.Weight,
					func(r int) float64 { return layer.Bias[r] },
				))
			}
			ch, hh, ww = layer.Out, 1, 1
		default:
			panic(fmt.Sprintf("hecnn: unsupported layer type %T", l))
		}
	}
	n.prog = lowerLayers(n.Layers, n.Layers[0].(*ConvPacked).NumPositions())
	return n
}

// lowerLayers runs every layer's Apply once against the recording backend,
// from the given number of inputs.
func lowerLayers(layers []Layer, inputs int) *program {
	lw, in := newLowering(inputs)
	s := &State{Kind: Contiguous, CTs: in}
	for _, l := range layers {
		s = l.Apply(lw, s)
		lw.endLayer(l.Name(), s.CTs)
	}
	if len(s.CTs) != 1 {
		panic("hecnn: network did not end in a single ciphertext")
	}
	return lw.finish()
}

func prod3(a, b, c int) int { return a * b * c }

// convMatrix returns the weight accessor of the dense matrix equivalent to
// conv over an (inC, inH, inW) input flattened in CHW order — how interior
// convolutions ride the generic KS-layer machinery.
func convMatrix(conv *cnn.Conv2D, inC, inH, inW int) func(r, c int) float64 {
	_, outH, outW := conv.OutShape(inC, inH, inW)
	return func(r, c int) float64 {
		m := r / (outH * outW)
		oy := (r / outW) % outH
		ox := r % outW
		ic := c / (inH * inW)
		iy := (c / inW) % inH
		ix := c % inW
		ky := iy - oy*conv.Stride + conv.Pad
		kx := ix - ox*conv.Stride + conv.Pad
		if ky < 0 || ky >= conv.Kernel || kx < 0 || kx >= conv.Kernel {
			return 0
		}
		return conv.Weight(m, ic, ky, kx)
	}
}

// poolMatrix returns the weight accessor of the linear map equivalent to
// non-overlapping average pooling over a CHW-flattened input.
func poolMatrix(pool *cnn.AvgPool2D, inC, inH, inW int) func(r, c int) float64 {
	_, outH, outW := pool.OutShape(inC, inH, inW)
	norm := 1.0 / float64(pool.Window*pool.Window)
	return func(r, c int) float64 {
		m := r / (outH * outW)
		oy := (r / outW) % outH
		ox := r % outW
		ic := c / (inH * inW)
		iy := (c / inW) % inH
		ix := c % inW
		if ic != m {
			return 0
		}
		if iy/pool.Window == oy && ix/pool.Window == ox &&
			iy < outH*pool.Window && ix < outW*pool.Window {
			return norm
		}
		return 0
	}
}

// PackInput performs the client-side packing of an image for the first
// convolution: one slot vector per kernel position (ic, ky, kx), each
// holding the corresponding input pixel for every output window, replicated
// across the outC map blocks (§II-B / Listing 1).
func (n *Network) PackInput(img *cnn.Tensor) [][]float64 {
	conv := n.Layers[0].(*ConvPacked)
	c := conv.Conv
	block := conv.outH * conv.outW
	out := make([][]float64, 0, conv.NumPositions())
	for ic := 0; ic < c.InC; ic++ {
		for ky := 0; ky < c.Kernel; ky++ {
			for kx := 0; kx < c.Kernel; kx++ {
				v := make([]float64, n.Slots)
				for oy := 0; oy < conv.outH; oy++ {
					for ox := 0; ox < conv.outW; ox++ {
						iy := oy*c.Stride + ky - c.Pad
						ix := ox*c.Stride + kx - c.Pad
						var pix float64
						if iy >= 0 && iy < img.H && ix >= 0 && ix < img.W {
							pix = img.At(ic, iy, ix)
						}
						for m := 0; m < conv.outC; m++ {
							v[m*block+oy*conv.outW+ox] = pix
						}
					}
				}
				out = append(out, v)
			}
		}
	}
	return out
}

// Count returns the network's per-layer HE-operation trace from inputs at
// startLevel (normally params.MaxLevel()), folded over its program without
// any cryptography.
func (n *Network) Count(startLevel int) *Recorder {
	rec, _ := n.CountTraced(startLevel)
	return rec
}

// CountTraced is Count plus the per-layer stats a Tracer reports for a
// live evaluation, from the same fold (wall times are zero).
func (n *Network) CountTraced(startLevel int) (*Recorder, []LayerStat) {
	rec := NewRecorder()
	return rec, n.prog.count(startLevel, rec)
}

// EvaluateEncrypted runs the network's program on already-encrypted packed
// inputs, returning the single output ciphertext handle. This is the
// server-side entry point: it needs evaluation keys and the model weights
// but never the secret key.
func (n *Network) EvaluateEncrypted(b Backend, cts []*CT) *CT {
	return n.EvaluateTraced(b, cts, nil)
}

// EvaluateTraced is EvaluateEncrypted with optional per-layer telemetry:
// a non-nil tracer gets each layer's op counts and wall time (see Tracer).
// A nil tracer takes the exact untimed path of EvaluateEncrypted — zero
// added work, zero added allocations (pinned by
// TestEvaluateTracedNilAddsNothing).
func (n *Network) EvaluateTraced(b Backend, cts []*CT, tr *Tracer) *CT {
	return n.prog.run(b, cts, tr)[n.prog.outputs()[0]]
}

// Run executes the network functionally: packs and encrypts the image,
// evaluates every layer homomorphically, and decrypts the logits. It
// returns the logits and the recorded trace.
func (n *Network) Run(ctx *Context, img *cnn.Tensor) ([]float64, *Recorder) {
	rec := NewRecorder()
	return n.run(ctx, img, NewCryptoBackend(ctx, rec), nil), rec
}

// RunTraced is Run with per-layer telemetry: pack, encrypt, evaluate with
// a live Tracer, decrypt. It returns the logits, the op trace, and the
// per-layer wall-time/op-count stats of this single inference.
func (n *Network) RunTraced(ctx *Context, img *cnn.Tensor) ([]float64, *Recorder, []LayerStat) {
	rec := NewRecorder()
	tr := &Tracer{}
	logits := n.run(ctx, img, NewCryptoBackend(ctx, rec), tr)
	return logits, rec, tr.Stats
}

// run is the one LoLa run path: pack and encrypt img, evaluate through b
// (with tr when non-nil), decrypt, and keep the logit slots.
func (n *Network) run(ctx *Context, img *cnn.Tensor, b Backend, tr *Tracer) []float64 {
	var cts []*CT
	for _, v := range n.PackInput(img) {
		cts = append(cts, ctx.EncryptVector(v))
	}
	out := ctx.DecryptVector(n.EvaluateTraced(b, cts, tr))
	return out[:n.Layers[len(n.Layers)-1].OutElems()]
}

// RotationsNeeded returns the sorted rotation amounts to generate Galois
// keys for, folded over the program from inputs at startLevel.
func (n *Network) RotationsNeeded(startLevel int) []int {
	_, rots := n.prog.keyLevels(startLevel)
	out := make([]int, 0, len(rots))
	for k := range rots {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// KeyViews returns level views (ckks.SwitchingKey.AtLevel) of the
// evaluation keys holding exactly what evaluating the network from inputs
// at startLevel uses: the relinearization key up to the highest level the
// program squares at, and each Galois key up to the highest level any
// rotation amount mapping to its element rotates at. Keys the program
// never uses are dropped, a missing key stays missing and a key shorter
// than its use stays as it is, so evaluation fails by name as it would
// with the given keys. The views share rows with rlk and rtk, whose other
// rows become garbage once the caller drops them; the evaluation's
// ciphertexts are bit-identical either way.
func (n *Network) KeyViews(params ckks.Parameters, startLevel int, rlk *ckks.RelinearizationKey, rtk *ckks.RotationKeys) (*ckks.RelinearizationKey, *ckks.RotationKeys) {
	relin, galois := n.galoisLevels(params, startLevel)
	view := func(swk *ckks.SwitchingKey, l int) *ckks.SwitchingKey {
		return swk.AtLevel(min(l, swk.Level()))
	}
	var vrlk *ckks.RelinearizationKey
	if rlk != nil && relin > 0 {
		vrlk = &ckks.RelinearizationKey{SwitchingKey: *view(&rlk.SwitchingKey, relin)}
	}
	if rtk == nil || len(galois) == 0 {
		return vrlk, nil
	}
	vrtk := &ckks.RotationKeys{Keys: make(map[uint64]*ckks.SwitchingKey, len(galois))}
	for g, l := range galois {
		if swk, ok := rtk.Keys[g]; ok {
			vrtk.Keys[g] = view(swk, l)
		}
	}
	return vrlk, vrtk
}

// galoisLevels is the program's key-level fold keyed as the keys are:
// the highest level at which evaluating n from inputs at startLevel
// relinearizes (0 when it never does), and the highest level at which it
// uses each Galois element — the maximum over every rotation amount that
// maps to it, since on a small ring distinct amounts can share one.
func (n *Network) galoisLevels(params ckks.Parameters, startLevel int) (relin int, galois map[uint64]int) {
	relin, rots := n.prog.keyLevels(startLevel)
	galois = make(map[uint64]int, len(rots))
	for k, l := range rots {
		g := params.GaloisElementForRotation(k)
		galois[g] = max(galois[g], l)
	}
	return relin, galois
}

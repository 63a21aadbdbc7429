package hecnn

import (
	"fmt"

	"fxhenn/internal/cnn"
)

// LayerKind is the paper's §V-A classification: KS layers contain KeySwitch
// operations (rotations/relinearizations) and pipeline L× slower; NKS layers
// do not.
type LayerKind int

const (
	// NKS layers: no KeySwitch (e.g. the packed first convolution).
	NKS LayerKind = iota
	// KS layers: contain KeySwitch operations.
	KS
)

// String returns the paper's label.
func (k LayerKind) String() string {
	if k == NKS {
		return "NKS"
	}
	return "KS"
}

// LayoutKind describes how logical vector elements map onto ciphertext
// slots between layers.
type LayoutKind int

const (
	// Contiguous: one ciphertext, element i in slot i, zero (or
	// weight-maskable garbage) elsewhere.
	Contiguous LayoutKind = iota
	// GroupSums: G ciphertexts; element r lives in ciphertext r/B at slot
	// (r mod B)·P2, with unmasked rotate-and-sum garbage in other slots.
	// Consumers must use plaintext weights that are zero off block starts.
	GroupSums
)

// State is the value flowing between HE-CNN layers.
type State struct {
	CTs   []*CT
	Kind  LayoutKind
	N     int // logical element count
	P2, B int // GroupSums geometry
}

// Layer is one HE-CNN stage.
type Layer interface {
	Name() string
	Kind() LayerKind
	Apply(b Backend, in *State) *State
	// OutElems returns the logical output element count.
	OutElems() int
}

// ConvPacked is the LoLa first-convolution layer (Listing 1 of the paper):
// the client packs one ciphertext per kernel position; the server computes
// out = Σ_k Rescale(PCmult(ct_k, w_k)) + bias — an NKS layer with exactly
// n_pos PCmult, n_pos Rescale, n_pos−1 CCadd and one PCadd.
type ConvPacked struct {
	LayerName string
	Conv      *cnn.Conv2D
	Slots     int

	outC, outH, outW int
}

// NewConvPacked wraps a plaintext conv layer for input shape (inC, inH, inW).
func NewConvPacked(name string, conv *cnn.Conv2D, inH, inW, slots int) *ConvPacked {
	oc, oh, ow := conv.OutShape(conv.InC, inH, inW)
	if oc*oh*ow > slots {
		panic(fmt.Sprintf("hecnn: conv %q output %d exceeds %d slots", name, oc*oh*ow, slots))
	}
	return &ConvPacked{LayerName: name, Conv: conv, Slots: slots, outC: oc, outH: oh, outW: ow}
}

// Name implements Layer.
func (l *ConvPacked) Name() string { return l.LayerName }

// Kind implements Layer: the packed convolution has no KeySwitch.
func (l *ConvPacked) Kind() LayerKind { return NKS }

// OutElems implements Layer.
func (l *ConvPacked) OutElems() int { return l.outC * l.outH * l.outW }

// NumPositions returns the number of packed input ciphertexts (K·K·inC).
func (l *ConvPacked) NumPositions() int {
	return l.Conv.InC * l.Conv.Kernel * l.Conv.Kernel
}

// Apply implements Layer.
func (l *ConvPacked) Apply(b Backend, in *State) *State {
	if len(in.CTs) != l.NumPositions() {
		panic(fmt.Sprintf("hecnn: conv %q expects %d packed inputs, got %d",
			l.LayerName, l.NumPositions(), len(in.CTs)))
	}
	b.SetLayer(l.LayerName)
	block := l.outH * l.outW
	var sum *CT
	k := 0
	for ic := 0; ic < l.Conv.InC; ic++ {
		for ky := 0; ky < l.Conv.Kernel; ky++ {
			for kx := 0; kx < l.Conv.Kernel; kx++ {
				ic, ky, kx := ic, ky, kx
				w := Plain{Make: func() []float64 {
					v := make([]float64, l.Slots)
					for m := 0; m < l.outC; m++ {
						wt := l.Conv.Weight(m, ic, ky, kx)
						for p := 0; p < block; p++ {
							v[m*block+p] = wt
						}
					}
					return v
				}}
				t := b.Rescale(b.PCmult(in.CTs[k], w))
				sum = accumulate(b, sum, t)
				k++
			}
		}
	}
	sum = b.PCadd(sum, Plain{Make: func() []float64 {
		v := make([]float64, l.Slots)
		for m := 0; m < l.outC; m++ {
			for p := 0; p < block; p++ {
				v[m*block+p] = l.Conv.Bias[m]
			}
		}
		return v
	}})
	return &State{CTs: []*CT{sum}, Kind: Contiguous, N: l.OutElems()}
}

// SquareLayer applies the x² activation to every ciphertext of the state:
// CCmult + Relinearize + Rescale each (the paper's Act layers, using OP3,
// OP4 and OP5).
type SquareLayer struct {
	LayerName string
}

// Name implements Layer.
func (l *SquareLayer) Name() string { return l.LayerName }

// Kind implements Layer: relinearization is a KeySwitch.
func (l *SquareLayer) Kind() LayerKind { return KS }

// OutElems implements Layer (unknown without input; reported as 0).
func (l *SquareLayer) OutElems() int { return 0 }

// Apply implements Layer.
func (l *SquareLayer) Apply(b Backend, in *State) *State {
	b.SetLayer(l.LayerName)
	out := &State{Kind: in.Kind, N: in.N, P2: in.P2, B: in.B}
	for _, ct := range in.CTs {
		out.CTs = append(out.CTs, b.Rescale(b.Square(ct)))
	}
	return out
}

// MatVecGroup computes y = Wx + bias from a Contiguous input using the
// block-replicated rotate-and-sum scheme: B output rows are processed per
// group ciphertext (B = slots/P2, P2 = next power of two ≥ cols), each
// group costing one PCmult, one Rescale and log2(P2) rotations. The output
// is in GroupSums layout. This is the paper's KS-type fully connected layer
// (Fig. 3), and also implements non-first convolutions by flattening them
// to their equivalent (sparse) matrix.
type MatVecGroup struct {
	LayerName  string
	Rows, Cols int
	Weight     func(r, c int) float64
	Bias       func(r int) float64
	Slots      int

	p2, b, g int
}

// NewMatVecGroup validates geometry and precomputes the packing factors.
func NewMatVecGroup(name string, rows, cols, slots int, weight func(r, c int) float64, bias func(r int) float64) *MatVecGroup {
	p2 := nextPow2(cols)
	if p2 > slots {
		panic(fmt.Sprintf("hecnn: matvec %q: %d columns exceed %d slots", name, cols, slots))
	}
	bb := slots / p2
	if rp := nextPow2(rows); rp < bb {
		bb = rp // no point replicating beyond the row count
	}
	g := (rows + bb - 1) / bb
	return &MatVecGroup{
		LayerName: name, Rows: rows, Cols: cols,
		Weight: weight, Bias: bias, Slots: slots,
		p2: p2, b: bb, g: g,
	}
}

// Name implements Layer.
func (l *MatVecGroup) Name() string { return l.LayerName }

// Kind implements Layer.
func (l *MatVecGroup) Kind() LayerKind { return KS }

// OutElems implements Layer.
func (l *MatVecGroup) OutElems() int { return l.Rows }

// Apply implements Layer.
func (l *MatVecGroup) Apply(b Backend, in *State) *State {
	if in.Kind != Contiguous || len(in.CTs) != 1 {
		panic(fmt.Sprintf("hecnn: matvec %q requires a single contiguous input", l.LayerName))
	}
	if in.N != l.Cols {
		panic(fmt.Sprintf("hecnn: matvec %q expects %d inputs, got %d", l.LayerName, l.Cols, in.N))
	}
	b.SetLayer(l.LayerName)

	// Replicate the input into the B blocks (right rotations into the
	// zero-padded upper slots).
	rep := in.CTs[0]
	for sh := l.p2; sh < l.b*l.p2; sh <<= 1 {
		rep = b.CCadd(rep, b.Rotate(rep, -sh))
	}

	out := &State{Kind: GroupSums, N: l.Rows, P2: l.p2, B: l.b}
	for g := 0; g < l.g; g++ {
		g := g
		w := Plain{Make: func() []float64 {
			v := make([]float64, l.Slots)
			for bb := 0; bb < l.b; bb++ {
				r := g*l.b + bb
				if r >= l.Rows {
					break
				}
				for c := 0; c < l.Cols; c++ {
					v[bb*l.p2+c] = l.Weight(r, c)
				}
			}
			return v
		}}
		t := b.Rescale(b.PCmult(rep, w))
		// Rotate-and-sum within each block: slot bb·P2 accumulates the
		// block's dot product (Fig. 3's Rotate/CCadd iterations).
		for s := l.p2 / 2; s >= 1; s >>= 1 {
			t = b.CCadd(t, b.Rotate(t, s))
		}
		t = b.PCadd(t, Plain{Make: func() []float64 {
			v := make([]float64, l.Slots)
			for bb := 0; bb < l.b; bb++ {
				r := g*l.b + bb
				if r >= l.Rows {
					break
				}
				v[bb*l.p2] = l.Bias(r)
			}
			return v
		}})
		out.CTs = append(out.CTs, t)
	}
	return out
}

// MatVecCollect computes y = Wx + bias from a GroupSums input, producing a
// single ciphertext with y_r in slot r (and rotate-and-sum garbage at slots
// ≥ P2). Its plaintext weights are nonzero only at block-start slots, which
// is what makes the unmasked GroupSums garbage harmless. It is intended as
// the network's final layer.
type MatVecCollect struct {
	LayerName  string
	Rows, Cols int
	Weight     func(r, c int) float64
	Bias       func(r int) float64
	Slots      int
}

// Name implements Layer.
func (l *MatVecCollect) Name() string { return l.LayerName }

// Kind implements Layer.
func (l *MatVecCollect) Kind() LayerKind { return KS }

// OutElems implements Layer.
func (l *MatVecCollect) OutElems() int { return l.Rows }

// Apply implements Layer.
func (l *MatVecCollect) Apply(b Backend, in *State) *State {
	if in.Kind != GroupSums {
		panic(fmt.Sprintf("hecnn: collect %q requires GroupSums input", l.LayerName))
	}
	if in.N != l.Cols {
		panic(fmt.Sprintf("hecnn: collect %q expects %d inputs, got %d", l.LayerName, l.Cols, in.N))
	}
	if l.Rows > in.P2 {
		panic(fmt.Sprintf("hecnn: collect %q: %d rows exceed block size %d", l.LayerName, l.Rows, in.P2))
	}
	b.SetLayer(l.LayerName)

	var out *CT
	for r := 0; r < l.Rows; r++ {
		r := r
		var acc *CT
		for g := range in.CTs {
			g := g
			w := Plain{Make: func() []float64 {
				v := make([]float64, l.Slots)
				for bb := 0; bb < in.B; bb++ {
					c := g*in.B + bb
					if c >= l.Cols {
						break
					}
					v[bb*in.P2] = l.Weight(r, c)
				}
				return v
			}}
			t := b.PCmult(in.CTs[g], w)
			acc = accumulate(b, acc, t)
		}
		acc = b.Rescale(acc)
		// Fold the B block-start partial sums down to slot 0. P2 divides the
		// slot count, so shifts by multiples of P2 keep values on block
		// starts.
		for sh := in.P2; sh < in.B*in.P2; sh <<= 1 {
			acc = b.CCadd(acc, b.Rotate(acc, sh))
		}
		// Move the row result to slot r and accumulate.
		acc = b.Rotate(acc, -r)
		out = accumulate(b, out, acc)
	}
	out = b.PCadd(out, Plain{Make: func() []float64 {
		v := make([]float64, l.Slots)
		for r := 0; r < l.Rows; r++ {
			v[r] = l.Bias(r)
		}
		return v
	}})
	return &State{CTs: []*CT{out}, Kind: Contiguous, N: l.Rows}
}

// accumulate returns acc + t, or t when there is no acc yet.
func accumulate(b Backend, acc, t *CT) *CT {
	if acc == nil {
		return t
	}
	return b.CCadd(acc, t)
}

func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

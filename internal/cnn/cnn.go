// Package cnn is the plaintext convolutional-network substrate: the networks
// whose homomorphic counterparts FxHENN accelerates. It provides exact
// (cleartext) inference as ground truth for the encrypted pipeline, plus the
// MAC accounting behind Table IV's CNN-vs-HE-CNN workload comparison.
package cnn

import (
	"fmt"
	"math/rand"
)

// Tensor is a dense CHW float tensor.
type Tensor struct {
	C, H, W int
	Data    []float64
}

// NewTensor allocates a zero tensor.
func NewTensor(c, h, w int) *Tensor {
	return &Tensor{C: c, H: h, W: w, Data: make([]float64, c*h*w)}
}

// At returns the element at (c, y, x).
func (t *Tensor) At(c, y, x int) float64 {
	return t.Data[(c*t.H+y)*t.W+x]
}

// Set writes the element at (c, y, x).
func (t *Tensor) Set(c, y, x int, v float64) {
	t.Data[(c*t.H+y)*t.W+x] = v
}

// Size returns the element count.
func (t *Tensor) Size() int { return len(t.Data) }

// Layer is one plaintext network stage.
type Layer interface {
	Name() string
	Forward(in *Tensor) *Tensor
	// MACs returns the multiply-accumulate count of the layer, the
	// "MACs" column of Table IV.
	MACs() int
	// OutShape returns the output dimensions for the given input shape.
	OutShape(c, h, w int) (int, int, int)
}

// Conv2D is a strided, zero-padded convolution.
type Conv2D struct {
	LayerName           string
	InC, OutC           int
	Kernel, Stride, Pad int
	Weights             []float64 // [outC][inC][k][k]
	Bias                []float64 // [outC]
	inC, inH, inW       int       // recorded at weight-init time for MACs
	outH, outW          int

	wGrad, bGrad []float64 // accumulated SGD gradients (train.go)
}

// NewConv2D builds a conv layer for a known input shape with zeroed weights.
func NewConv2D(name string, inC, inH, inW, outC, kernel, stride, pad int) *Conv2D {
	c := &Conv2D{
		LayerName: name, InC: inC, OutC: outC,
		Kernel: kernel, Stride: stride, Pad: pad,
		Weights: make([]float64, outC*inC*kernel*kernel),
		Bias:    make([]float64, outC),
		inC:     inC, inH: inH, inW: inW,
	}
	c.outH = (inH+2*pad-kernel)/stride + 1
	c.outW = (inW+2*pad-kernel)/stride + 1
	if c.outH < 1 || c.outW < 1 {
		panic(fmt.Sprintf("cnn: conv %q output shape %dx%d invalid", name, c.outH, c.outW))
	}
	return c
}

// Weight returns w[oc][ic][ky][kx].
func (c *Conv2D) Weight(oc, ic, ky, kx int) float64 {
	return c.Weights[((oc*c.InC+ic)*c.Kernel+ky)*c.Kernel+kx]
}

// Name implements Layer.
func (c *Conv2D) Name() string { return c.LayerName }

// OutShape implements Layer.
func (c *Conv2D) OutShape(_, h, w int) (int, int, int) {
	return c.OutC, (h+2*c.Pad-c.Kernel)/c.Stride + 1, (w+2*c.Pad-c.Kernel)/c.Stride + 1
}

// Forward implements Layer.
func (c *Conv2D) Forward(in *Tensor) *Tensor {
	if in.C != c.InC {
		panic(fmt.Sprintf("cnn: conv %q expects %d channels, got %d", c.LayerName, c.InC, in.C))
	}
	oc, oh, ow := c.OutShape(in.C, in.H, in.W)
	out := NewTensor(oc, oh, ow)
	for m := 0; m < oc; m++ {
		for y := 0; y < oh; y++ {
			for x := 0; x < ow; x++ {
				sum := c.Bias[m]
				for ic := 0; ic < c.InC; ic++ {
					for ky := 0; ky < c.Kernel; ky++ {
						iy := y*c.Stride + ky - c.Pad
						if iy < 0 || iy >= in.H {
							continue
						}
						for kx := 0; kx < c.Kernel; kx++ {
							ix := x*c.Stride + kx - c.Pad
							if ix < 0 || ix >= in.W {
								continue
							}
							sum += c.Weight(m, ic, ky, kx) * in.At(ic, iy, ix)
						}
					}
				}
				out.Set(m, y, x, sum)
			}
		}
	}
	return out
}

// MACs implements Layer: one MAC per weight per output position.
func (c *Conv2D) MACs() int {
	return c.OutC * c.outH * c.outW * c.InC * c.Kernel * c.Kernel
}

// Dense is a fully connected layer over the flattened input.
type Dense struct {
	LayerName string
	In, Out   int
	Weights   []float64 // [out][in]
	Bias      []float64

	wGrad, bGrad []float64 // accumulated SGD gradients (train.go)
}

// NewDense builds a dense layer with zeroed weights.
func NewDense(name string, in, out int) *Dense {
	return &Dense{
		LayerName: name, In: in, Out: out,
		Weights: make([]float64, in*out),
		Bias:    make([]float64, out),
	}
}

// Weight returns w[o][i].
func (d *Dense) Weight(o, i int) float64 { return d.Weights[o*d.In+i] }

// Name implements Layer.
func (d *Dense) Name() string { return d.LayerName }

// OutShape implements Layer.
func (d *Dense) OutShape(_, _, _ int) (int, int, int) { return d.Out, 1, 1 }

// Forward implements Layer.
func (d *Dense) Forward(in *Tensor) *Tensor {
	if in.Size() != d.In {
		panic(fmt.Sprintf("cnn: dense %q expects %d inputs, got %d", d.LayerName, d.In, in.Size()))
	}
	out := NewTensor(d.Out, 1, 1)
	for o := 0; o < d.Out; o++ {
		sum := d.Bias[o]
		for i := 0; i < d.In; i++ {
			sum += d.Weights[o*d.In+i] * in.Data[i]
		}
		out.Data[o] = sum
	}
	return out
}

// MACs implements Layer.
func (d *Dense) MACs() int { return d.In * d.Out }

// Square is the polynomial activation x² that CryptoNets introduced as the
// HE-friendly replacement for ReLU.
type Square struct {
	LayerName string
}

// Name implements Layer.
func (s *Square) Name() string { return s.LayerName }

// OutShape implements Layer.
func (s *Square) OutShape(c, h, w int) (int, int, int) { return c, h, w }

// Forward implements Layer.
func (s *Square) Forward(in *Tensor) *Tensor {
	out := NewTensor(in.C, in.H, in.W)
	for i, v := range in.Data {
		out.Data[i] = v * v
	}
	return out
}

// MACs implements Layer: one multiply per element; the count is not known
// without the input shape, so Square reports zero and the network accounts
// for it during inference shape propagation.
func (s *Square) MACs() int { return 0 }

// AvgPool2D is non-overlapping average pooling. The original CryptoNets
// architecture interleaves mean-pool layers; homomorphically it lowers to a
// fixed-weight convolution (a linear map), so the HE compiler reuses the
// matvec machinery and it costs no multiplicative depth beyond its rescale.
type AvgPool2D struct {
	LayerName string
	Window    int
}

// Name implements Layer.
func (p *AvgPool2D) Name() string { return p.LayerName }

// OutShape implements Layer.
func (p *AvgPool2D) OutShape(c, h, w int) (int, int, int) {
	return c, h / p.Window, w / p.Window
}

// Forward implements Layer.
func (p *AvgPool2D) Forward(in *Tensor) *Tensor {
	oc, oh, ow := p.OutShape(in.C, in.H, in.W)
	if oh < 1 || ow < 1 {
		panic(fmt.Sprintf("cnn: pool %q window %d larger than input %dx%d", p.LayerName, p.Window, in.H, in.W))
	}
	out := NewTensor(oc, oh, ow)
	norm := 1.0 / float64(p.Window*p.Window)
	for c := 0; c < oc; c++ {
		for y := 0; y < oh; y++ {
			for x := 0; x < ow; x++ {
				sum := 0.0
				for dy := 0; dy < p.Window; dy++ {
					for dx := 0; dx < p.Window; dx++ {
						sum += in.At(c, y*p.Window+dy, x*p.Window+dx)
					}
				}
				out.Set(c, y, x, sum*norm)
			}
		}
	}
	return out
}

// MACs implements Layer: pooling is adds plus one scale; counted as zero
// multiplies, consistent with the paper's MAC accounting.
func (p *AvgPool2D) MACs() int { return 0 }

// Network is an ordered stack of layers.
type Network struct {
	Name   string
	InC    int
	InH    int
	InW    int
	Layers []Layer
}

// Infer runs plaintext inference, returning the flat output (logits).
func (n *Network) Infer(in *Tensor) []float64 {
	t := in
	for _, l := range n.Layers {
		t = l.Forward(t)
	}
	return append([]float64(nil), t.Data...)
}

// TotalMACs sums layer MAC counts.
func (n *Network) TotalMACs() int {
	total := 0
	for _, l := range n.Layers {
		total += l.MACs()
	}
	return total
}

// Argmax returns the index of the largest logit.
func Argmax(v []float64) int {
	best := 0
	for i := range v {
		if v[i] > v[best] {
			best = i
		}
	}
	return best
}

// InitWeights fills every conv/dense layer with deterministic, He-style
// scaled weights. The paper's evaluation measures latency and resources,
// which depend only on geometry, so synthetic distribution-matched weights
// substitute for trained LoLa models (see DESIGN.md §1).
func (n *Network) InitWeights(seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for _, l := range n.Layers {
		switch layer := l.(type) {
		case *Conv2D:
			fanIn := float64(layer.InC * layer.Kernel * layer.Kernel)
			std := 1.0 / fanIn
			for i := range layer.Weights {
				layer.Weights[i] = rng.NormFloat64() * std
			}
			for i := range layer.Bias {
				layer.Bias[i] = rng.NormFloat64() * 0.01
			}
		case *Dense:
			std := 1.0 / float64(layer.In)
			for i := range layer.Weights {
				layer.Weights[i] = rng.NormFloat64() * std
			}
			for i := range layer.Bias {
				layer.Bias[i] = rng.NormFloat64() * 0.01
			}
		}
	}
}

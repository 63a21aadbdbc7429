package cnn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTensorAccessors(t *testing.T) {
	tt := NewTensor(2, 3, 4)
	if tt.Size() != 24 {
		t.Fatalf("size %d", tt.Size())
	}
	tt.Set(1, 2, 3, 7.5)
	if tt.At(1, 2, 3) != 7.5 {
		t.Fatal("At/Set mismatch")
	}
	if tt.Data[23] != 7.5 {
		t.Fatal("CHW indexing wrong")
	}
}

// TestConvIdentityKernel: a 1×1 identity kernel with stride 1 reproduces the
// input channel.
func TestConvIdentityKernel(t *testing.T) {
	c := NewConv2D("id", 1, 4, 4, 1, 1, 1, 0)
	c.Weights[0] = 1
	in := NewTensor(1, 4, 4)
	for i := range in.Data {
		in.Data[i] = float64(i)
	}
	out := c.Forward(in)
	for i := range in.Data {
		if out.Data[i] != in.Data[i] {
			t.Fatalf("identity conv changed element %d", i)
		}
	}
}

// TestConvKnownValues checks a hand-computed 3×3 convolution with stride 2
// and padding 1.
func TestConvKnownValues(t *testing.T) {
	c := NewConv2D("k", 1, 4, 4, 1, 3, 2, 1)
	// All-ones kernel: every output = sum of the 3×3 window.
	for i := range c.Weights {
		c.Weights[i] = 1
	}
	in := NewTensor(1, 4, 4)
	for i := range in.Data {
		in.Data[i] = 1
	}
	out := c.Forward(in)
	if out.H != 2 || out.W != 2 {
		t.Fatalf("output shape %dx%d, want 2x2", out.H, out.W)
	}
	// Window at (0,0) with pad 1 covers 2×2 real pixels; window at (1,1)
	// covers 3×3.
	if out.At(0, 0, 0) != 4 {
		t.Fatalf("corner window sum %g, want 4", out.At(0, 0, 0))
	}
	if out.At(0, 1, 1) != 9 {
		t.Fatalf("center window sum %g, want 9", out.At(0, 1, 1))
	}
}

// TestConvMatchesNaiveDense: a convolution equals the dense layer whose
// matrix is the conv's im2col expansion, checked on random weights/input.
func TestConvMatchesNaiveDense(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	conv := NewConv2D("c", 2, 6, 6, 3, 3, 2, 1)
	for i := range conv.Weights {
		conv.Weights[i] = rng.NormFloat64()
	}
	for i := range conv.Bias {
		conv.Bias[i] = rng.NormFloat64()
	}
	oc, oh, ow := conv.OutShape(2, 6, 6)
	dense := NewDense("d", 2*6*6, oc*oh*ow)
	// Expand conv into the equivalent matrix.
	for m := 0; m < oc; m++ {
		for y := 0; y < oh; y++ {
			for x := 0; x < ow; x++ {
				o := (m*oh+y)*ow + x
				dense.Bias[o] = conv.Bias[m]
				for ic := 0; ic < 2; ic++ {
					for ky := 0; ky < 3; ky++ {
						iy := y*2 + ky - 1
						if iy < 0 || iy >= 6 {
							continue
						}
						for kx := 0; kx < 3; kx++ {
							ix := x*2 + kx - 1
							if ix < 0 || ix >= 6 {
								continue
							}
							dense.Weights[o*dense.In+(ic*6+iy)*6+ix] = conv.Weight(m, ic, ky, kx)
						}
					}
				}
			}
		}
	}
	in := NewTensor(2, 6, 6)
	for i := range in.Data {
		in.Data[i] = rng.NormFloat64()
	}
	co := conv.Forward(in)
	do := dense.Forward(&Tensor{C: 72, H: 1, W: 1, Data: in.Data})
	for i := range co.Data {
		if math.Abs(co.Data[i]-do.Data[i]) > 1e-9 {
			t.Fatalf("conv vs dense element %d: %g vs %g", i, co.Data[i], do.Data[i])
		}
	}
}

func TestDenseKnownValues(t *testing.T) {
	d := NewDense("d", 3, 2)
	copy(d.Weights, []float64{1, 2, 3, -1, 0, 0}) // rows o = 0, 1 of w[o][i]
	d.Bias[0] = 0.5
	d.Bias[1] = 1
	out := d.Forward(&Tensor{C: 3, H: 1, W: 1, Data: []float64{1, 10, 100}})
	if out.Data[0] != 1+20+300+0.5 {
		t.Fatalf("dense out0 = %g", out.Data[0])
	}
	if out.Data[1] != -1+1 {
		t.Fatalf("dense out1 = %g", out.Data[1])
	}
}

// TestSquareProperty: Square is elementwise x².
func TestSquareProperty(t *testing.T) {
	s := &Square{LayerName: "sq"}
	f := func(vals []float64) bool {
		if len(vals) == 0 {
			return true
		}
		in := &Tensor{C: len(vals), H: 1, W: 1, Data: vals}
		out := s.Forward(in)
		for i, v := range vals {
			if out.Data[i] != v*v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestShapeValidation(t *testing.T) {
	c := NewConv2D("c", 3, 8, 8, 2, 3, 1, 0)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("wrong channel count did not panic")
			}
		}()
		c.Forward(NewTensor(2, 8, 8))
	}()
	d := NewDense("d", 10, 2)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("wrong dense input did not panic")
			}
		}()
		d.Forward(NewTensor(9, 1, 1))
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("invalid conv geometry did not panic")
			}
		}()
		NewConv2D("bad", 1, 2, 2, 1, 5, 1, 0)
	}()
}

// TestMNISTNetGeometry pins the paper's layer dimensions: Cnv1 output 845,
// Fc1 845→100, Fc2 100→10, and the Table IV MAC counts.
func TestMNISTNetGeometry(t *testing.T) {
	net := NewMNISTNet()
	net.InitWeights(1)
	in := NewTensor(1, 28, 28)
	out := net.Infer(in)
	if len(out) != 10 {
		t.Fatalf("output size %d", len(out))
	}
	conv := net.Layers[0].(*Conv2D)
	oc, oh, ow := conv.OutShape(1, 28, 28)
	if oc*oh*ow != 845 {
		t.Fatalf("Cnv1 output %d, want 845", oc*oh*ow)
	}
	// Table IV: Cnv1 has 2.11e4 MACs, Fc1 8.45e4.
	if got := conv.MACs(); got != 21125 {
		t.Fatalf("Cnv1 MACs = %d, want 21125 (2.11e4, Table IV)", got)
	}
	fc1 := net.Layers[2].(*Dense)
	if got := fc1.MACs(); got != 84500 {
		t.Fatalf("Fc1 MACs = %d, want 84500 (8.45e4, Table IV)", got)
	}
	// Fc1/Cnv1 MAC ratio = 4X, as the paper's motivation states.
	ratio := float64(fc1.MACs()) / float64(conv.MACs())
	if ratio < 3.9 || ratio > 4.1 {
		t.Fatalf("Fc1/Cnv1 MAC ratio %g, want ≈4 (§III)", ratio)
	}
}

func TestCIFAR10NetGeometry(t *testing.T) {
	net := NewCIFAR10Net()
	net.InitWeights(2)
	in := NewTensor(3, 32, 32)
	out := net.Infer(in)
	if len(out) != 10 {
		t.Fatalf("output size %d", len(out))
	}
	conv1 := net.Layers[0].(*Conv2D)
	if c, h, w := conv1.OutShape(3, 32, 32); c*h*w != 20*15*15 {
		t.Fatalf("Cnv1 out %d", c*h*w)
	}
	conv2 := net.Layers[2].(*Conv2D)
	if c, h, w := conv2.OutShape(20, 15, 15); c*h*w != 2450 {
		t.Fatalf("Cnv2 out %d, want 2450", c*h*w)
	}
}

func TestTinyNets(t *testing.T) {
	for _, net := range []*Network{NewTinyNet(), NewTinyConvNet()} {
		net.InitWeights(3)
		in := NewTensor(net.InC, net.InH, net.InW)
		rng := rand.New(rand.NewSource(4))
		for i := range in.Data {
			in.Data[i] = rng.Float64()
		}
		out := net.Infer(in)
		if len(out) != 4 {
			t.Fatalf("%s output size %d", net.Name, len(out))
		}
		for _, v := range out {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%s produced non-finite output", net.Name)
			}
		}
		if net.TotalMACs() <= 0 {
			t.Fatalf("%s MACs not positive", net.Name)
		}
	}
}

func TestArgmax(t *testing.T) {
	if Argmax([]float64{1, 5, 3}) != 1 {
		t.Fatal("argmax wrong")
	}
	if Argmax([]float64{-1}) != 0 {
		t.Fatal("argmax single wrong")
	}
}

// TestInitWeightsDeterministic: same seed, same weights.
func TestInitWeightsDeterministic(t *testing.T) {
	a := NewMNISTNet()
	b := NewMNISTNet()
	a.InitWeights(7)
	b.InitWeights(7)
	ca := a.Layers[0].(*Conv2D)
	cb := b.Layers[0].(*Conv2D)
	for i := range ca.Weights {
		if ca.Weights[i] != cb.Weights[i] {
			t.Fatal("weight init not deterministic")
		}
	}
	b.InitWeights(8)
	same := true
	for i := range ca.Weights {
		if ca.Weights[i] != cb.Weights[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical weights")
	}
}

// TestMNISTDeepNetGeometry checks the generality variant: two conv stages
// at depth 5 on MNIST input.
func TestMNISTDeepNetGeometry(t *testing.T) {
	net := NewMNISTDeepNet()
	net.InitWeights(9)
	out := net.Infer(NewTensor(1, 28, 28))
	if len(out) != 10 {
		t.Fatalf("output size %d", len(out))
	}
	conv2 := net.Layers[2].(*Conv2D)
	if c, h, w := conv2.OutShape(5, 13, 13); c*h*w != 360 {
		t.Fatalf("Cnv2 out %d want 360", c*h*w)
	}
	if len(net.Layers) != 5 {
		t.Fatal("depth must stay 5 multiplicative layers")
	}
}

// TestAvgPoolKnownValues: 2×2 average pooling of a ramp.
func TestAvgPoolKnownValues(t *testing.T) {
	p := &AvgPool2D{LayerName: "p", Window: 2}
	in := NewTensor(1, 4, 4)
	for i := range in.Data {
		in.Data[i] = float64(i)
	}
	out := p.Forward(in)
	if out.H != 2 || out.W != 2 {
		t.Fatalf("pool shape %dx%d", out.H, out.W)
	}
	// Window (0,0): elements 0,1,4,5 → mean 2.5.
	if out.At(0, 0, 0) != 2.5 {
		t.Fatalf("pool(0,0)=%g want 2.5", out.At(0, 0, 0))
	}
	// Window (1,1): elements 10,11,14,15 → mean 12.5.
	if out.At(0, 1, 1) != 12.5 {
		t.Fatalf("pool(1,1)=%g want 12.5", out.At(0, 1, 1))
	}
}

func TestAvgPoolValidation(t *testing.T) {
	p := &AvgPool2D{LayerName: "p", Window: 9}
	defer func() {
		if recover() == nil {
			t.Fatal("oversized window did not panic")
		}
	}()
	p.Forward(NewTensor(1, 4, 4))
}

func TestTinyPoolNetInference(t *testing.T) {
	net := NewTinyPoolNet()
	net.InitWeights(11)
	out := net.Infer(NewTensor(1, 8, 8))
	if len(out) != 4 {
		t.Fatalf("output %d", len(out))
	}
}

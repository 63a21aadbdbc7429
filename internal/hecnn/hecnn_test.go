package hecnn

import (
	"math"
	"math/rand"
	"testing"

	"fxhenn/internal/ckks"
	"fxhenn/internal/cnn"
)

// depth-7 chain is never needed; both tiny nets consume 5 levels, so L=7
// mirrors the paper's parameter choice at small degree.
func tinyParams() ckks.Parameters { return ckks.NewParameters(8, 30, 7, 45) }

// Layer returns the trace of the named layer, or nil.
func (r *Recorder) Layer(name string) *LayerEvents { return r.byName[name] }

func randomImage(c, h, w int, seed int64) *cnn.Tensor {
	img := cnn.NewTensor(c, h, w)
	rng := rand.New(rand.NewSource(seed))
	for i := range img.Data {
		img.Data[i] = rng.Float64()
	}
	return img
}

func TestCompileMNISTStructure(t *testing.T) {
	net := Compile(cnn.NewMNISTNet(), 4096)
	if len(net.Layers) != 5 {
		t.Fatalf("layer count %d", len(net.Layers))
	}
	wantKinds := []LayerKind{NKS, KS, KS, KS, KS}
	wantNames := []string{"Cnv1", "Act1", "Fc1", "Act2", "Fc2"}
	for i, l := range net.Layers {
		if l.Name() != wantNames[i] {
			t.Fatalf("layer %d name %q want %q", i, l.Name(), wantNames[i])
		}
		if l.Kind() != wantKinds[i] {
			t.Fatalf("layer %q kind %v want %v", l.Name(), l.Kind(), wantKinds[i])
		}
	}
	conv := net.Layers[0].(*ConvPacked)
	if conv.NumPositions() != 25 {
		t.Fatalf("Cnv1 positions %d want 25", conv.NumPositions())
	}
	if conv.OutElems() != 845 {
		t.Fatalf("Cnv1 out %d want 845", conv.OutElems())
	}
	fc1 := net.Layers[2].(*MatVecGroup)
	if fc1.g != 25 {
		t.Fatalf("Fc1 groups %d want 25 (B=4, 100 rows)", fc1.g)
	}
}

func TestCompileRejectsBadNets(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("empty net did not panic")
			}
		}()
		Compile(&cnn.Network{Name: "empty"}, 128)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("dense-first net did not panic")
			}
		}()
		Compile(&cnn.Network{
			Name: "df", InC: 1, InH: 1, InW: 4,
			Layers: []cnn.Layer{cnn.NewDense("d", 4, 2)},
		}, 128)
	}()
}

// TestMNISTOpCounts pins the dry-run per-layer trace of FxHENN-MNIST. The
// Cnv1 structure matches the paper's Listing 1 exactly (25 PCmult, 25
// Rescale, 24 CCadd, 1 PCadd = 75 HOPs, zero KeySwitch); the totals land in
// the same regime as the paper's 826 HOPs / 280 KS (our generic packing
// spends ~1.5× the HOPs of LoLa's hand-tuned layout — see EXPERIMENTS.md).
func TestMNISTOpCounts(t *testing.T) {
	net := Compile(cnn.NewMNISTNet(), 4096)
	rec := net.Count(7)

	cnv1 := rec.Layer("Cnv1")
	if cnv1.Count(ckks.OpPCmult) != 25 || cnv1.Count(ckks.OpRescale) != 25 ||
		cnv1.Count(ckks.OpCCadd) != 24 || cnv1.Count(ckks.OpPCadd) != 1 {
		t.Fatalf("Cnv1 ops: PC=%d Resc=%d CC=%d PCadd=%d",
			cnv1.Count(ckks.OpPCmult), cnv1.Count(ckks.OpRescale),
			cnv1.Count(ckks.OpCCadd), cnv1.Count(ckks.OpPCadd))
	}
	if cnv1.HOPs() != 75 {
		t.Fatalf("Cnv1 HOPs %d want 75 (Table IV)", cnv1.HOPs())
	}
	if cnv1.KeySwitches() != 0 {
		t.Fatal("Cnv1 must be NKS")
	}

	act1 := rec.Layer("Act1")
	if act1.HOPs() != 3 || act1.KeySwitches() != 1 {
		t.Fatalf("Act1 HOPs=%d KS=%d", act1.HOPs(), act1.KeySwitches())
	}

	fc1 := rec.Layer("Fc1")
	// Replication (2 Rot + 2 CCadd) + 25 groups × (PCmult + Rescale +
	// 10 Rotate + 10 CCadd + PCadd).
	if fc1.KeySwitches() != 252 {
		t.Fatalf("Fc1 KS %d want 252", fc1.KeySwitches())
	}
	if fc1.HOPs() != 579 {
		t.Fatalf("Fc1 HOPs %d want 579", fc1.HOPs())
	}

	act2 := rec.Layer("Act2")
	if act2.HOPs() != 75 || act2.KeySwitches() != 25 {
		t.Fatalf("Act2 HOPs=%d KS=%d (25 group ciphertexts)", act2.HOPs(), act2.KeySwitches())
	}

	fc2 := rec.Layer("Fc2")
	if fc2.KeySwitches() != 29 {
		t.Fatalf("Fc2 KS %d want 29", fc2.KeySwitches())
	}

	if rec.TotalHOPs() != 75+3+579+75+fc2.HOPs() {
		t.Fatal("total HOPs inconsistent")
	}
	// Same workload regime as the paper's 826 HOPs / 280 KS.
	if rec.TotalHOPs() < 800 || rec.TotalHOPs() > 1600 {
		t.Fatalf("total HOPs %d outside expected band", rec.TotalHOPs())
	}
	if rec.TotalKeySwitches() < 250 || rec.TotalKeySwitches() > 400 {
		t.Fatalf("total KS %d outside expected band", rec.TotalKeySwitches())
	}
}

// TestCIFAR10OpCounts checks the dry-run trace of FxHENN-CIFAR10: two orders
// of magnitude more HOPs than MNIST (Table VI), dominated by Cnv2.
func TestCIFAR10OpCounts(t *testing.T) {
	net := Compile(cnn.NewCIFAR10Net(), 8192)
	rec := net.Count(7)

	cnv1 := rec.Layer("Cnv1")
	if cnv1.HOPs() != 225 { // 75 PCmult + 75 Rescale + 74 CCadd + 1 PCadd
		t.Fatalf("Cnv1 HOPs %d want 225", cnv1.HOPs())
	}
	cnv2 := rec.Layer("Cnv2")
	if cnv2.KeySwitches() < 30000 {
		t.Fatalf("Cnv2 KS %d — expected the dominant KS load", cnv2.KeySwitches())
	}
	total := rec.TotalHOPs()
	mnist := Compile(cnn.NewMNISTNet(), 4096).Count(7)
	ratio := float64(total) / float64(mnist.TotalHOPs())
	if ratio < 50 || ratio > 200 {
		t.Fatalf("CIFAR10/MNIST HOP ratio %.1f, want ~100X (Table VI)", ratio)
	}
}

// TestCountLevelsRespectDepth: the networks consume exactly 5 levels, ending
// at level 2 as required for logit headroom.
func TestCountLevelsRespectDepth(t *testing.T) {
	for _, tc := range []struct {
		net   *cnn.Network
		slots int
	}{
		{cnn.NewMNISTNet(), 4096},
		{cnn.NewCIFAR10Net(), 8192},
		{cnn.NewTinyNet(), 128},
		{cnn.NewTinyConvNet(), 128},
	} {
		rec := Compile(tc.net, tc.slots).Count(7)
		for _, l := range rec.Layers {
			for _, e := range l.Events {
				if e.Level < 2 {
					t.Fatalf("%s/%s: op %v at level %d", tc.net.Name, l.Layer, e.Op, e.Level)
				}
			}
		}
	}
}

// TestTinyNetEncryptedMatchesPlaintext is the core integration test: the
// full conv→square→dense→square→dense pipeline evaluated under encryption
// must reproduce plaintext inference.
func TestTinyNetEncryptedMatchesPlaintext(t *testing.T) {
	params := tinyParams()
	pnet := cnn.NewTinyNet()
	pnet.InitWeights(42)
	net := Compile(pnet, params.Slots())

	ctx := NewContext(params, 7, net.RotationsNeeded(params.MaxLevel()))
	img := randomImage(1, 8, 8, 1)
	want := pnet.Infer(img)

	got, rec := net.Run(ctx, img)
	if len(got) != len(want) {
		t.Fatalf("logit count %d want %d", len(got), len(want))
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-2 {
			t.Fatalf("logit %d: encrypted %g plaintext %g", i, got[i], want[i])
		}
	}
	if cnn.Argmax(got) != cnn.Argmax(want) {
		t.Fatal("encrypted argmax differs from plaintext")
	}
	// The functional trace must match the dry-run trace op for op.
	dry := net.Count(params.MaxLevel())
	if rec.TotalHOPs() != dry.TotalHOPs() || rec.TotalKeySwitches() != dry.TotalKeySwitches() {
		t.Fatalf("functional trace (%d/%d) != dry-run trace (%d/%d)",
			rec.TotalHOPs(), rec.TotalKeySwitches(), dry.TotalHOPs(), dry.TotalKeySwitches())
	}
}

// TestTinyConvNetEncrypted exercises the interior-convolution-as-matvec path
// (the FxHENN-CIFAR10 structure) under encryption.
func TestTinyConvNetEncrypted(t *testing.T) {
	params := tinyParams()
	pnet := cnn.NewTinyConvNet()
	pnet.InitWeights(43)
	net := Compile(pnet, params.Slots())

	ctx := NewContext(params, 8, net.RotationsNeeded(params.MaxLevel()))
	img := randomImage(2, 8, 8, 2)
	want := pnet.Infer(img)
	got, _ := net.Run(ctx, img)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-2 {
			t.Fatalf("logit %d: encrypted %g plaintext %g", i, got[i], want[i])
		}
	}
}

// TestEncryptedInferenceMultipleImages: several images through one context,
// verifying nothing leaks state between runs.
func TestEncryptedInferenceMultipleImages(t *testing.T) {
	params := tinyParams()
	pnet := cnn.NewTinyNet()
	pnet.InitWeights(44)
	net := Compile(pnet, params.Slots())
	ctx := NewContext(params, 9, net.RotationsNeeded(params.MaxLevel()))
	for seed := int64(10); seed < 13; seed++ {
		img := randomImage(1, 8, 8, seed)
		want := pnet.Infer(img)
		got, _ := net.Run(ctx, img)
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-2 {
				t.Fatalf("seed %d logit %d: %g vs %g", seed, i, got[i], want[i])
			}
		}
	}
}

func TestPackInputGeometry(t *testing.T) {
	net := Compile(cnn.NewTinyNet(), 128)
	img := randomImage(1, 8, 8, 3)
	packed := net.PackInput(img)
	conv := net.Layers[0].(*ConvPacked)
	if len(packed) != conv.NumPositions() {
		t.Fatalf("packed count %d want %d", len(packed), conv.NumPositions())
	}
	// Kernel position (ky=1, kx=1) with stride 2, pad 1 reads pixel
	// (2oy, 2ox); check map replication too.
	k := 1*3 + 1 // ic=0, ky=1, kx=1
	block := 16  // 4×4 windows
	for oy := 0; oy < 4; oy++ {
		for ox := 0; ox < 4; ox++ {
			want := img.At(0, 2*oy, 2*ox)
			for m := 0; m < 2; m++ {
				if got := packed[k][m*block+oy*4+ox]; got != want {
					t.Fatalf("packed[%d] map %d window (%d,%d): %g want %g", k, m, oy, ox, got, want)
				}
			}
		}
	}
	// Position (0,0) with pad 1 reads (2oy-1, 2ox-1): out of bounds for
	// oy=ox=0, so slot 0 must be zero.
	if packed[0][0] != 0 {
		t.Fatalf("padding slot not zero: %g", packed[0][0])
	}
}

func TestRotationsNeeded(t *testing.T) {
	net := Compile(cnn.NewTinyNet(), 128)
	rots := net.RotationsNeeded(7)
	if len(rots) == 0 {
		t.Fatal("no rotations reported for a KS network")
	}
	seen := map[int]bool{}
	for _, k := range rots {
		if k == 0 {
			t.Fatal("rotation 0 must not be requested")
		}
		if seen[k] {
			t.Fatal("duplicate rotation")
		}
		seen[k] = true
	}
	// The log-sum strides for P2=32 must be present.
	for _, k := range []int{16, 8, 4, 2, 1} {
		if !seen[k] {
			t.Fatalf("missing log-sum rotation %d", k)
		}
	}
}

func TestMatVecGroupValidation(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("oversized matvec did not panic")
			}
		}()
		NewMatVecGroup("x", 4, 200, 128, func(r, c int) float64 { return 0 }, func(r int) float64 { return 0 })
	}()

	l := NewMatVecGroup("x", 4, 8, 128, func(r, c int) float64 { return 0 }, func(r int) float64 { return 0 })
	func() {
		defer func() {
			if recover() == nil {
				t.Error("wrong input count did not panic")
			}
		}()
		countLayer(l, &State{Kind: GroupSums, N: 8, CTs: make([]*CT, 1)}, 5)
	}()
}

// TestMatVecGroupSmallRowCapping: when rows < slots/P2, replication is
// capped to the next power of two of the row count.
func TestMatVecGroupSmallRowCapping(t *testing.T) {
	// 8 cols → P2=8; slots/P2 = 16, but only 2 rows → B capped at 2, G=1.
	l := NewMatVecGroup("x", 2, 8, 128, func(r, c int) float64 { return 1 }, func(r int) float64 { return 0 })
	if l.b != 2 || l.g != 1 {
		t.Fatalf("B=%d G=%d, want 2/1", l.b, l.g)
	}
}

// TestGroupSumsArithmetic verifies the GroupSums layout contract end to end
// with real ciphertexts: a matvec's row sums appear at block-start slots.
func TestGroupSumsArithmetic(t *testing.T) {
	params := tinyParams()
	rows, cols := 6, 10
	rng := rand.New(rand.NewSource(5))
	w := make([][]float64, rows)
	x := make([]float64, cols)
	for i := range x {
		x[i] = rng.Float64()
	}
	want := make([]float64, rows)
	for r := range w {
		w[r] = make([]float64, cols)
		for c := range w[r] {
			w[r][c] = rng.NormFloat64()
			want[r] += w[r][c] * x[c]
		}
	}
	layer := NewMatVecGroup("mv", rows, cols, params.Slots(),
		func(r, c int) float64 { return w[r][c] },
		func(r int) float64 { return 0 })

	// Fold the rotation set, then execute.
	ctx := NewContext(params, 11, layerRotations(layer, &State{Kind: Contiguous, N: cols, CTs: make([]*CT, 1)}, 7))

	in := &State{Kind: Contiguous, N: cols, CTs: []*CT{ctx.EncryptVector(x)}}
	out := layer.Apply(NewCryptoBackend(ctx, nil), in)
	if out.Kind != GroupSums {
		t.Fatal("output not GroupSums")
	}
	for r := 0; r < rows; r++ {
		g, bb := r/out.B, r%out.B
		vals := ctx.DecryptVector(out.CTs[g])
		if math.Abs(vals[bb*out.P2]-want[r]) > 1e-3 {
			t.Fatalf("row %d: got %g want %g", r, vals[bb*out.P2], want[r])
		}
	}
}

// TestMNISTDeepCompilesAndCounts: the generality network compiles to the
// conv→matvec pattern and keeps a depth-5 level chain.
func TestMNISTDeepCompilesAndCounts(t *testing.T) {
	net := Compile(cnn.NewMNISTDeepNet(), 4096)
	rec := net.Count(7)
	if len(rec.Layers) != 5 {
		t.Fatalf("layer count %d", len(rec.Layers))
	}
	for _, l := range rec.Layers {
		for _, e := range l.Events {
			if e.Level < 2 {
				t.Fatalf("%s at level %d", l.Layer, e.Level)
			}
		}
	}
	// Cnv2 (360×845 matvec) dominates the KS load.
	if rec.Layer("Cnv2").KeySwitches() < rec.TotalKeySwitches()/2 {
		t.Fatal("Cnv2 should dominate KS")
	}
}

// TestTinyPoolNetEncrypted verifies the average-pooling lowering under
// encryption: conv → square → pool → square → dense must match plaintext.
func TestTinyPoolNetEncrypted(t *testing.T) {
	params := tinyParams()
	pnet := cnn.NewTinyPoolNet()
	pnet.InitWeights(45)
	net := Compile(pnet, params.Slots())

	ctx := NewContext(params, 46, net.RotationsNeeded(params.MaxLevel()))
	img := randomImage(1, 8, 8, 3)
	want := pnet.Infer(img)
	got, _ := net.Run(ctx, img)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-2 {
			t.Fatalf("logit %d: encrypted %g plaintext %g", i, got[i], want[i])
		}
	}
	if cnn.Argmax(got) != cnn.Argmax(want) {
		t.Fatal("argmax mismatch with pooling")
	}
}

// TestEstimatePrecision: the noise fold's network-level error bound
// dominates the measured error of a functional run, stays useful (≤ 1),
// and passes the capacity check for both depth-5 tiny nets at L=7 in both
// compile modes.
func TestEstimatePrecision(t *testing.T) {
	params := tinyParams()
	for _, prof := range []struct {
		name string
		make func() *cnn.Network
	}{{"tiny", cnn.NewTinyNet}, {"tinyconv", cnn.NewTinyConvNet}} {
		for _, mode := range []struct {
			name string
			opts Options
		}{{"ladder", Options{}}, {"bsgs", Options{BSGS: true}}} {
			t.Run(prof.name+"/"+mode.name, func(t *testing.T) {
				pnet := prof.make()
				pnet.InitWeights(42)
				net := CompileWith(pnet, params.Slots(), mode.opts)

				est, ok := net.EstimatePrecision(params, 1.0)
				if !ok {
					t.Fatal("capacity check failed for a depth-5 tiny net at L=7")
				}
				if est.Level != 2 {
					t.Fatalf("predicted final level %d, want 2", est.Level)
				}

				ctx := NewContext(params, 7, net.RotationsNeeded(params.MaxLevel()))
				img := randomImage(pnet.InC, pnet.InH, pnet.InW, 1)
				want := pnet.Infer(img)
				got, _ := net.Run(ctx, img)
				measured := 0.0
				for i := range want {
					measured = math.Max(measured, math.Abs(got[i]-want[i]))
				}
				if measured > est.Err {
					t.Fatalf("measured error %.3g exceeds predicted bound %.3g", measured, est.Err)
				}
				if est.Err > 1 {
					t.Fatalf("bound %.3g useless (> 1): model too pessimistic", est.Err)
				}
			})
		}
	}
}

// TestEstimatePrecisionFlagsBadParams: at a too-short modulus chain the
// capacity check must fire. (L=7 is required for depth 5 plus headroom;
// the schedule fold itself panics below level 2, so probe with large
// inputs instead.)
func TestEstimatePrecisionFlagsBadParams(t *testing.T) {
	params := tinyParams()
	pnet := cnn.NewTinyNet()
	pnet.InitWeights(42)
	net := Compile(pnet, params.Slots())
	// Inputs of magnitude 2^12: after two squarings values reach ~2^48+,
	// beyond the level-2 modulus capacity.
	if _, ok := net.EstimatePrecision(params, 4096); ok {
		t.Fatal("huge inputs not flagged by the capacity check")
	}
}

package hecnn

import (
	"math"
	"strings"
	"testing"

	"fxhenn/internal/cnn"
)

// TestBatchedEncryptedMatchesPlaintext: three images evaluated in one
// batched pass must each match their plaintext inference.
func TestBatchedEncryptedMatchesPlaintext(t *testing.T) {
	params := tinyParams()
	pnet := cnn.NewTinyNet()
	pnet.InitWeights(81)
	bnet, err := CompileBatched(pnet, params.Slots())
	if err != nil {
		t.Fatal(err)
	}

	// Batched evaluation uses no rotations (only relinearization inside
	// Square), so no Galois keys are needed at all.
	if _, rots := bnet.prog.keyLevels(params.MaxLevel()); len(rots) != 0 {
		t.Fatalf("batched packing requested rotations: %v", rots)
	}
	ctx := NewContext(params, 82, nil)

	images := []*cnn.Tensor{
		randomImage(1, 8, 8, 10),
		randomImage(1, 8, 8, 11),
		randomImage(1, 8, 8, 12),
	}
	logits, rec, err := bnet.RunBatch(ctx, images)
	if err != nil {
		t.Fatal(err)
	}
	for bi, img := range images {
		want := pnet.Infer(img)
		for i := range want {
			if math.Abs(logits[bi][i]-want[i]) > 1e-2 {
				t.Fatalf("image %d logit %d: %g vs %g", bi, i, logits[bi][i], want[i])
			}
		}
		if cnn.Argmax(logits[bi]) != cnn.Argmax(want) {
			t.Fatalf("image %d argmax mismatch", bi)
		}
	}
	// KeySwitch only from the two Square layers.
	if rec.TotalKeySwitches() != rec.Layer("Act1").KeySwitches()+rec.Layer("Act2").KeySwitches() {
		t.Fatal("unexpected KeySwitch sources in batched mode")
	}
}

// TestBatchedPoolNet: the pooling path also works batched.
func TestBatchedPoolNet(t *testing.T) {
	params := tinyParams()
	pnet := cnn.NewTinyPoolNet()
	pnet.InitWeights(83)
	bnet, err := CompileBatched(pnet, params.Slots())
	if err != nil {
		t.Fatal(err)
	}
	ctx := NewContext(params, 84, nil)

	images := []*cnn.Tensor{randomImage(1, 8, 8, 20), randomImage(1, 8, 8, 21)}
	logits, _, err := bnet.RunBatch(ctx, images)
	if err != nil {
		t.Fatal(err)
	}
	for bi, img := range images {
		want := pnet.Infer(img)
		for i := range want {
			if math.Abs(logits[bi][i]-want[i]) > 1e-2 {
				t.Fatalf("image %d logit %d: %g vs %g", bi, i, logits[bi][i], want[i])
			}
		}
	}
}

// TestBatchedMNISTWorkloadMatchesCryptoNets: the batched MNIST op count
// lands in CryptoNets' published regime (215K HOPs, Table VII) — two to
// three orders above LoLa's packing, the latency/throughput trade the
// paper describes.
func TestBatchedMNISTWorkloadMatchesCryptoNets(t *testing.T) {
	bnet, err := CompileBatched(cnn.NewMNISTNet(), 4096)
	if err != nil {
		t.Fatal(err)
	}
	rec := bnet.Count(7)
	total := rec.TotalHOPs()
	if total < 100000 || total > 500000 {
		t.Fatalf("batched MNIST HOPs %d outside CryptoNets' 215K regime", total)
	}
	// CryptoNets' Table VII row is HOP=215K, KS=945: the KS count is the
	// relinearizations of the 845+100 square activations — which our batched
	// compilation reproduces exactly.
	if ks := rec.TotalKeySwitches(); ks != 945 {
		t.Fatalf("batched MNIST KS %d, want exactly 945 (CryptoNets, Table VII)", ks)
	}
	lola := Compile(cnn.NewMNISTNet(), 4096).Count(7)
	if ratio := float64(total) / float64(lola.TotalHOPs()); ratio < 50 {
		t.Fatalf("batched/LoLa HOP ratio %.0f — expected orders of magnitude", ratio)
	}
	// Rotation-free except relinearizations.
	for _, l := range rec.Layers {
		if l.Layer == "Act1" || l.Layer == "Act2" {
			continue
		}
		if l.KeySwitches() != 0 {
			t.Fatalf("layer %s has KeySwitches in batched mode", l.Layer)
		}
	}
}

// TestCompileBatchedValidation: user-controlled network/capacity problems
// are returned as errors, not panics (issue 5 bugfix).
func TestCompileBatchedValidation(t *testing.T) {
	if _, err := CompileBatched(&cnn.Network{Name: "empty"}, 4); err == nil {
		t.Error("empty network accepted")
	}
	if _, err := CompileBatched(nil, 4); err == nil {
		t.Error("nil network accepted")
	}
	if _, err := CompileBatched(cnn.NewTinyNet(), 0); err == nil {
		t.Error("zero capacity accepted")
	}
	type exotic struct{ cnn.Square }
	bad := &cnn.Network{Name: "exotic", InC: 1, InH: 2, InW: 2,
		Layers: []cnn.Layer{&exotic{}}}
	if _, err := CompileBatched(bad, 4); err == nil {
		t.Error("unsupported layer type accepted")
	} else if !strings.Contains(err.Error(), "unsupported batched layer") {
		t.Errorf("unhelpful error: %v", err)
	}
}

// TestPackBatchValidation: hostile batch sizes and shapes are data errors.
func TestPackBatchValidation(t *testing.T) {
	bnet, err := CompileBatched(cnn.NewTinyNet(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bnet.PackBatch(make([]*cnn.Tensor, 5)); err == nil {
		t.Error("oversized batch accepted")
	}
	if _, err := bnet.PackBatch(nil); err == nil {
		t.Error("empty batch accepted")
	}
	if _, err := bnet.PackBatch([]*cnn.Tensor{nil}); err == nil {
		t.Error("nil image accepted")
	}
	if _, err := bnet.PackBatch([]*cnn.Tensor{cnn.NewTensor(3, 2, 2)}); err == nil {
		t.Error("wrong-shape image accepted")
	}
	if _, _, err := bnet.RunBatch(nil, make([]*cnn.Tensor, 9)); err == nil {
		t.Error("RunBatch accepted oversized batch")
	}
}

// TestBatchedGeometry: the input size and the program's logit count walk
// the layer shapes.
func TestBatchedGeometry(t *testing.T) {
	bnet, err := CompileBatched(cnn.NewMNISTNet(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if got := bnet.InputSize(); got != 28*28 {
		t.Errorf("InputSize = %d, want 784", got)
	}
	if got := len(bnet.prog.outputs()); got != 10 {
		t.Errorf("%d logit outputs, want 10", got)
	}
}

// TestBatchedParams derives a right-sized ring: capacity slots fit, chain
// is preserved, degree does not balloon past need.
func TestBatchedParams(t *testing.T) {
	base := tinyParams()
	p, err := BatchedParams(base, 8)
	if err != nil {
		t.Fatal(err)
	}
	if p.Slots() < 8 {
		t.Errorf("slots %d < capacity 8", p.Slots())
	}
	if p.Slots() >= 32 {
		t.Errorf("slots %d — ring not right-sized for capacity 8", p.Slots())
	}
	if p.L != base.L || p.QBits != base.QBits || p.PBits != base.PBits {
		t.Error("modulus chain not preserved")
	}
	if _, err := BatchedParams(base, 0); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := BatchedParams(base, 1<<20); err == nil {
		t.Error("absurd capacity accepted")
	}
}

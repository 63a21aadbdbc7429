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
	if _, err := bnet.PackImage(cnn.NewTensor(1, 1, 1)); err == nil {
		t.Error("PackImage accepted wrong-shape image")
	}
}

// TestBatchedGeometry: InputSize/OutputSize walk the layer shapes.
func TestBatchedGeometry(t *testing.T) {
	bnet, err := CompileBatched(cnn.NewMNISTNet(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if got := bnet.InputSize(); got != 28*28 {
		t.Errorf("InputSize = %d, want 784", got)
	}
	if got := bnet.OutputSize(); got != 10 {
		t.Errorf("OutputSize = %d, want 10", got)
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

// TestCombineBatch: per-request slot-0 ciphertexts rotated into their batch
// slots and summed give the same batch as PackBatch, end to end.
func TestCombineBatch(t *testing.T) {
	pnet := cnn.NewTinyNet()
	pnet.InitWeights(91)
	base := tinyParams()
	params, err := BatchedParams(base, 4)
	if err != nil {
		t.Fatal(err)
	}
	bnet, err := CompileBatched(pnet, params.Slots())
	if err != nil {
		t.Fatal(err)
	}
	ctx := NewContext(params, 92, BatchRotations(4))

	images := []*cnn.Tensor{
		randomImage(1, 8, 8, 30),
		randomImage(1, 8, 8, 31),
		randomImage(1, 8, 8, 32),
	}
	members := make([][]*CT, len(images))
	for m, img := range images {
		packed, err := bnet.PackImage(img)
		if err != nil {
			t.Fatal(err)
		}
		cts := make([]*CT, len(packed))
		for p, v := range packed {
			cts[p] = ctx.EncryptVector(v)
		}
		if err := bnet.ValidateBatchCiphertexts(cts, params.MaxLevel()); err != nil {
			t.Fatal(err)
		}
		members[m] = cts
	}

	b := NewCryptoBackend(ctx, nil)
	combined, err := bnet.CombineBatch(b, members)
	if err != nil {
		t.Fatal(err)
	}
	outs := bnet.Evaluate(b, combined)
	logits := decodeBatchLogits(ctx, outs, len(images))
	for bi, img := range images {
		want := pnet.Infer(img)
		for i := range want {
			if math.Abs(logits[bi][i]-want[i]) > 1e-2 {
				t.Fatalf("image %d logit %d: %g vs %g", bi, i, logits[bi][i], want[i])
			}
		}
	}

	// Occupancy 1 skips the combine entirely: same slice back.
	solo, err := bnet.CombineBatch(b, members[:1])
	if err != nil {
		t.Fatal(err)
	}
	for p := range solo {
		if solo[p] != members[0][p] {
			t.Fatal("occupancy-1 combine did not pass ciphertexts through")
		}
	}

	// Hostile occupancies and ragged members are errors.
	if _, err := bnet.CombineBatch(b, nil); err == nil {
		t.Error("empty combine accepted")
	}
	if _, err := bnet.CombineBatch(b, make([][]*CT, params.Slots()+1)); err == nil {
		t.Error("over-capacity combine accepted")
	}
	if _, err := bnet.CombineBatch(b, [][]*CT{members[0][:3]}); err == nil {
		t.Error("ragged member accepted")
	}
}

// TestValidateBatchCiphertexts rejects malformed batched requests.
func TestValidateBatchCiphertexts(t *testing.T) {
	params := tinyParams()
	bnet, err := CompileBatched(cnn.NewTinyNet(), params.Slots())
	if err != nil {
		t.Fatal(err)
	}
	ctx := NewContext(params, 93, nil)
	good := make([]*CT, bnet.InputSize())
	for i := range good {
		good[i] = ctx.EncryptVector([]float64{0.1})
	}
	if err := bnet.ValidateBatchCiphertexts(good, params.MaxLevel()); err != nil {
		t.Fatal(err)
	}
	if err := bnet.ValidateBatchCiphertexts(good[:3], params.MaxLevel()); err == nil {
		t.Error("short request accepted")
	}
	if err := bnet.ValidateBatchCiphertexts(good, params.MaxLevel()-1); err == nil {
		t.Error("wrong level accepted")
	}
	withNil := append(append([]*CT(nil), good[:len(good)-1]...), nil)
	if err := bnet.ValidateBatchCiphertexts(withNil, params.MaxLevel()); err == nil {
		t.Error("nil ciphertext accepted")
	}
}

package hecnn

import (
	"math"
	"strings"
	"testing"

	"fxhenn/internal/ckks"
	"fxhenn/internal/cnn"
)

func validateFixture(t *testing.T) (ckks.Parameters, *cnn.Network, *Network) {
	t.Helper()
	params := ckks.NewParameters(8, 30, 7, 45)
	pnet := cnn.NewTinyNet()
	pnet.InitWeights(77)
	return params, pnet, Compile(pnet, params.Slots())
}

func TestValidateInput(t *testing.T) {
	_, pnet, henet := validateFixture(t)
	good := cnn.NewTensor(pnet.InC, pnet.InH, pnet.InW)
	if err := henet.ValidateInput(good); err != nil {
		t.Fatalf("valid input rejected: %v", err)
	}
	if err := henet.ValidateInput(nil); err == nil {
		t.Fatal("nil input accepted")
	}
	if err := henet.ValidateInput(cnn.NewTensor(pnet.InC, pnet.InH+1, pnet.InW)); err == nil ||
		!strings.Contains(err.Error(), "shape") {
		t.Fatalf("wrong shape: %v", err)
	}
	bad := cnn.NewTensor(pnet.InC, pnet.InH, pnet.InW)
	bad.Data[3] = math.NaN()
	if err := henet.ValidateInput(bad); err == nil || !strings.Contains(err.Error(), "finite") {
		t.Fatalf("NaN input: %v", err)
	}
}

func TestValidateCiphertexts(t *testing.T) {
	params, _, henet := validateFixture(t)
	ctx := NewContext(params, 78, henet.RotationsNeeded(params.MaxLevel()))
	conv := henet.Layers[0].(*ConvPacked)

	fresh := func(level int) []*CT {
		cts := make([]*CT, conv.NumPositions())
		for i := range cts {
			pt := ctx.Encoder.Encode([]float64{1}, level, params.Scale)
			cts[i] = WrapCiphertext(ctx.Encryptor.Encrypt(pt))
		}
		return cts
	}

	if err := henet.ValidateCiphertexts(fresh(params.MaxLevel()), params.MaxLevel(), params.Scale); err != nil {
		t.Fatalf("valid request rejected: %v", err)
	}
	if err := henet.ValidateCiphertexts(fresh(params.MaxLevel())[:2], params.MaxLevel(), params.Scale); err == nil {
		t.Fatal("wrong count accepted")
	}
	if err := henet.ValidateCiphertexts(fresh(params.MaxLevel()-1), params.MaxLevel(), params.Scale); err == nil ||
		!strings.Contains(err.Error(), "level") {
		t.Fatalf("wrong level: %v", err)
	}
	rescaled := fresh(params.MaxLevel())
	rescaled[2].Ciphertext().Scale *= 2
	if err := henet.ValidateCiphertexts(rescaled, params.MaxLevel(), params.Scale); err == nil ||
		!strings.Contains(err.Error(), "scale") {
		t.Fatalf("wrong scale: %v", err)
	}
	withNil := fresh(params.MaxLevel())
	withNil[1] = nil
	if err := henet.ValidateCiphertexts(withNil, params.MaxLevel(), params.Scale); err == nil {
		t.Fatal("nil ciphertext accepted")
	}
}

// TestRunCheckedRecoversEvaluatorPanic: a context missing its rotation
// keys makes the evaluator panic mid-network; RunChecked must convert
// that to an error instead of crashing the caller.
func TestRunCheckedRecoversEvaluatorPanic(t *testing.T) {
	params, pnet, henet := validateFixture(t)

	goodCtx := NewContext(params, 79, henet.RotationsNeeded(params.MaxLevel()))
	img := cnn.NewTensor(pnet.InC, pnet.InH, pnet.InW)
	for i := range img.Data {
		img.Data[i] = float64(i%7) / 7
	}
	logits, rec, err := henet.RunChecked(goodCtx, img)
	if err != nil || len(logits) == 0 || rec == nil {
		t.Fatalf("healthy run failed: %v", err)
	}

	if _, _, err := henet.RunChecked(goodCtx, cnn.NewTensor(1, 2, 2)); err == nil {
		t.Fatal("shape mismatch not reported")
	}

	badCtx := NewContext(params, 80, nil) // no rotation keys
	if _, _, err := henet.RunChecked(badCtx, img); err == nil ||
		!strings.Contains(err.Error(), "evaluation failed") {
		t.Fatalf("evaluator panic not recovered: %v", err)
	}
}

package hecnn

import (
	"math"
	"testing"

	"fxhenn/internal/ckks"
	"fxhenn/internal/cnn"
)

// TestCompiledBatchedZeroEncodeSteadyState: after Warm, batched evaluation
// performs zero encoder calls, and value keying dedupes repeated weights
// far below the operand-consumption count.
func TestCompiledBatchedZeroEncodeSteadyState(t *testing.T) {
	params := tinyParams()
	pnet := cnn.NewTinyNet()
	pnet.InitWeights(81)
	bnet, err := CompileBatched(pnet, params.Slots())
	if err != nil {
		t.Fatal(err)
	}
	cb := NewCompiledBatched(bnet, params, NewContext(params, 82, nil).Encoder, 0)

	cb.Warm(params.MaxLevel())
	warmEncodes := cb.EncodeCalls()
	if warmEncodes == 0 {
		t.Fatal("warm performed no encodes")
	}
	consumptions := 0
	for _, l := range bnet.Count(params.MaxLevel()).Layers {
		consumptions += l.HOPs()
	}
	if warmEncodes >= int64(consumptions) {
		t.Errorf("value keying did not dedupe: %d encodes for %d op consumptions", warmEncodes, consumptions)
	}

	ctx := NewContext(params, 82, nil)
	images := []*cnn.Tensor{randomImage(1, 8, 8, 10), randomImage(1, 8, 8, 11)}
	logits, _, err := cb.RunBatch(ctx, images)
	if err != nil {
		t.Fatal(err)
	}
	if got := cb.EncodeCalls(); got != warmEncodes {
		t.Errorf("steady-state evaluation encoded: %d calls after warm's %d", got, warmEncodes)
	}
	if stats := cb.CacheStats(); stats.Hits == 0 {
		t.Error("no cache hits recorded")
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

// TestCompiledBatchedMatchesUncached: the cached path is bit-identical to
// the uncached batched path (EncodeConst is deterministic and plaintexts
// are reused read-only), pinned by output ciphertext digests.
func TestCompiledBatchedMatchesUncached(t *testing.T) {
	params := tinyParams()
	pnet := cnn.NewTinyNet()
	pnet.InitWeights(83)
	bnet, err := CompileBatched(pnet, params.Slots())
	if err != nil {
		t.Fatal(err)
	}

	images := []*cnn.Tensor{randomImage(1, 8, 8, 20), randomImage(1, 8, 8, 21)}
	packed, err := bnet.PackBatch(images)
	if err != nil {
		t.Fatal(err)
	}

	encryptInputs := func(ctx *Context) []*CT {
		cts := make([]*CT, len(packed))
		for p, v := range packed {
			cts[p] = ctx.EncryptVector(v)
		}
		return cts
	}

	// Same seed → identical fresh ciphertexts on both paths.
	ctxA := NewContext(params, 84, nil)
	plain := NewCryptoBackend(ctxA, nil)
	outsA := bnet.Evaluate(plain, encryptInputs(ctxA))

	ctxB := NewContext(params, 84, nil)
	cb := NewCompiledBatched(bnet, params, ctxB.Encoder, 0)
	cb.Warm(params.MaxLevel())
	outsB := bnet.Evaluate(cb.Backend(ctxB, nil), encryptInputs(ctxB))

	if len(outsA) != len(outsB) {
		t.Fatalf("output counts differ: %d vs %d", len(outsA), len(outsB))
	}
	for i := range outsA {
		if outsA[i].digest() != outsB[i].digest() {
			t.Fatalf("logit %d: cached path diverged from uncached path", i)
		}
	}
}

// TestCompiledBatchedTableHoldsWords: every operand of a batched program
// is a broadcast scalar, so the warm MNIST table holds each resident
// operand in constant form, one word per level. Its bytes are exactly
// what the residency fold predicts, and exactly 1/N of what the same
// slots would take as rows of N words.
func TestCompiledBatchedTableHoldsWords(t *testing.T) {
	pnet := cnn.NewMNISTNet()
	pnet.InitWeights(1)
	params, err := BatchedParams(ckks.ParamsMNIST(), 8)
	if err != nil {
		t.Fatal(err)
	}
	bnet, err := CompileBatched(pnet, params.Slots())
	if err != nil {
		t.Fatal(err)
	}
	top := params.MaxLevel()
	cb := NewCompiledBatched(bnet, params, ckks.NewEncoder(params), 0)
	cb.Warm(top)
	var fold, rows int64
	bnet.prog.residents(&params, top, 0, func(_ int, k operandKey) {
		fold += k.bytes(&params)
		rows += int64(params.PlaintextBytes(k.level))
	})
	got := cb.CacheStats().Bytes
	if got != fold {
		t.Fatalf("warm table holds %d bytes, the residency fold predicts %d", got, fold)
	}
	if rows != int64(params.N())*got {
		t.Fatalf("table of %d bytes is not 1/%d of the %d bytes of rows", got, params.N(), rows)
	}
	for s, pt := range cb.slots {
		if pt != nil && pt.Const == nil {
			t.Fatalf("slot %d holds rows, not the constant form", s)
		}
	}
	t.Logf("%d resident constants in %d bytes (%d as rows)", cb.CacheStats().Entries, got, rows)
}

package hecnn

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"fxhenn/internal/cnn"
)

// TestBatchedGoldenDigests pins the output bits of the CryptoNets-batched
// path against fixed digests, as TestPipelineGoldenDigests does for the
// ckks pipeline: the uncached and the cached (operand table) evaluation
// of a two-image batch on the tiny network's ring, and a three-image
// batch on the smallest ring BatchedParams derives for four images:
// N = 16, the ring degree the mnist_batch8 benchmark runs at. The cached
// and uncached paths share every kernel, so their mutual equality alone
// cannot show that a change to the plaintext operands' representation
// left the bits where they were; the digests can.
func TestBatchedGoldenDigests(t *testing.T) {
	const (
		golden256 = "590f92880bd325f5bcb2ea75e773823a0b3316a1247276cf4f537341f45a711a"
		golden16  = "f900504b93091a5423c439d05a0e03a7855ea45b269058d3624b58d7e8c65f05"
	)
	pnet := cnn.NewTinyNet()
	pnet.InitWeights(7)
	images := []*cnn.Tensor{randomImage(1, 8, 8, 8), randomImage(1, 8, 8, 9)}

	params := tinyParams()
	bnet, err := CompileBatched(pnet, params.Slots())
	if err != nil {
		t.Fatal(err)
	}
	packed, err := bnet.PackBatch(images)
	if err != nil {
		t.Fatal(err)
	}
	encrypt := func(ctx *Context, vs [][]float64) []*CT {
		cts := make([]*CT, len(vs))
		for i, v := range vs {
			cts[i] = ctx.EncryptVector(v)
		}
		return cts
	}
	ctx := NewContext(params, 9, nil)
	if got := outputDigest(bnet.Evaluate(NewCryptoBackend(ctx, nil), encrypt(ctx, packed))); got != golden256 {
		t.Errorf("batched uncached: digest %s, want %s", got, golden256)
	}
	ctx = NewContext(params, 9, nil)
	cb := NewCompiledBatched(bnet, params, ctx.Encoder, 0)
	cb.Warm(params.MaxLevel())
	if got := outputDigest(bnet.Evaluate(cb.Backend(ctx, nil), encrypt(ctx, packed))); got != golden256 {
		t.Errorf("batched cached: digest %s, want %s", got, golden256)
	}

	small, err := BatchedParams(params, 4)
	if err != nil {
		t.Fatal(err)
	}
	snet, err := CompileBatched(pnet, small.Slots())
	if err != nil {
		t.Fatal(err)
	}
	three, err := snet.PackBatch(append(images, randomImage(1, 8, 8, 11)))
	if err != nil {
		t.Fatal(err)
	}
	sctx := NewContext(small, 10, BatchRotations(4))
	scb := NewCompiledBatched(snet, small, sctx.Encoder, 0)
	scb.Warm(small.MaxLevel())
	if got := outputDigest(snet.Evaluate(scb.Backend(sctx, nil), encrypt(sctx, three))); got != golden16 {
		t.Errorf("three-image batch on the small ring: digest %s, want %s", got, golden16)
	}
}

// outputDigest hashes the digests of cts in order.
func outputDigest(cts []*CT) string {
	h := sha256.New()
	for _, d := range digests(cts) {
		h.Write([]byte(d))
	}
	return hex.EncodeToString(h.Sum(nil))
}

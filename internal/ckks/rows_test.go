package ckks

import (
	"slices"
	"testing"

	"fxhenn/internal/ring"
)

// TestScopedEvaluatorMatchesUnscoped: an evaluator scoped to a row list
// (WithRows) gives the unscoped evaluator's bits for every operation of
// evalPipeline, also when the list is dirty from an earlier pass whose
// outputs went back to it, and leaves its inputs untouched. Under the
// race detector recycled rows are poisoned, so a temporary an operation
// gave back too early shows up here as a wrong digest.
func TestScopedEvaluatorMatchesUnscoped(t *testing.T) {
	tc := newTestContext(t, []int{1, 2, 4, 8})
	a, b := pipelineInputs(tc)
	inA, inB := a.Digest(), b.Digest()
	want := evalPipeline(tc, a, b)

	var rows ring.Rows
	plain := tc.eval
	tc.eval = plain.WithRows(&rows)
	for pass := range 2 {
		if got := evalPipeline(tc, a, b); !slices.Equal(got, want) {
			t.Fatalf("pass %d: scoped digests %v, want %v", pass, got, want)
		}
		// Dirty the list for the next pass with a product it can take
		// back whole.
		tc.eval.Recycle(tc.eval.MulNew(a, b))
	}
	if a.Digest() != inA || b.Digest() != inB {
		t.Fatal("a scoped evaluation changed its inputs")
	}
	if plain.rows != nil {
		t.Fatal("WithRows changed the evaluator it copied")
	}
}

// TestRotationKeyAddedAfterNewEvaluator: the evaluator computes the NTT
// permutation of each Galois key it is built with once, and still rotates
// under a key added to its RotationKeys later.
func TestRotationKeyAddedAfterNewEvaluator(t *testing.T) {
	tc := newTestContext(t, []int{1})
	ct := tc.encryptVec([]float64{1, 2, 3, 4}, tc.params.L)
	g := tc.params.GaloisElementForRotation(2)
	if _, ok := tc.eval.perms[g]; ok {
		t.Fatal("the evaluator has a permutation for a key it was not built with")
	}
	tc.rtk.Keys[g] = tc.kg.GenRotationKeys(tc.sk, []int{2}).Keys[g]
	got := tc.decryptVec(tc.eval.RotateNew(ct, 2))
	requireClose(t, got[:2], []float64{3, 4}, 1e-3, "rotation under a late key")
	if !slices.Equal(tc.eval.permutation(g), tc.params.Ring().NTTAutomorphismIndex(g)) {
		t.Fatal("late key's permutation differs from NTTAutomorphismIndex")
	}
}

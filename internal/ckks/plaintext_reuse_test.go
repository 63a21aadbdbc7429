package ckks

import (
	"sync"
	"testing"
)

// TestPlaintextReuseContract pins the contract the serve-path weight
// cache (hecnn.CompiledNetwork) is built on: a Plaintext used as an
// evaluator operand is strictly read-only. One encoded plaintext, shared
// by many concurrent AddPlainNew/MulPlainNew/MulPlainAdd calls at full
// and truncated levels, must (a) keep a bit-identical serialized digest
// and (b) produce result ciphertexts bit-identical to serial evaluation
// with a private copy of the same plaintext.
func TestPlaintextReuseContract(t *testing.T) {
	tc := newTestContext(t, nil)
	params := tc.params

	vals := make([]float64, params.Slots())
	for i := range vals {
		vals[i] = float64(i%7)/7 - 0.4
	}
	shared := tc.enc.Encode(vals, params.MaxLevel(), params.Scale)
	private := tc.enc.Encode(vals, params.MaxLevel(), params.Scale)
	if shared.Digest() != private.Digest() {
		t.Fatal("two encodings of the same vector differ; encoder not deterministic")
	}
	before := shared.Digest()

	// Ciphertexts at the top level and one below it: the truncated-level
	// path reads a sub-slice view of the plaintext poly, which is exactly
	// where an accidental in-place op would corrupt the shared value.
	in := make([]float64, params.Slots())
	for i := range in {
		in[i] = float64(i%5)/5 - 0.2
	}
	ctTop := tc.encryptVec(in, params.MaxLevel())
	ctLow := tc.encryptVec(in, params.MaxLevel()-1)

	wantMulTop := tc.eval.MulPlainNew(ctTop, private).Digest()
	wantAddTop := tc.eval.AddPlainNew(ctTop, private).Digest()
	wantMulLow := tc.eval.MulPlainNew(ctLow, private).Digest()
	wantAddLow := tc.eval.AddPlainNew(ctLow, private).Digest()
	// MulPlainAdd accumulates into a private top-level accumulator: the
	// unfused MulPlainNew + AddNew is its reference, and the low-level
	// product drops the accumulator to the product's level.
	acc := tc.eval.MulPlainNew(ctTop, private)
	wantMacTop := tc.eval.AddNew(acc, tc.eval.MulPlainNew(ctTop, private)).Digest()
	wantMacLow := tc.eval.AddNew(acc, tc.eval.MulPlainNew(ctLow, private)).Digest()
	mulPlainAdd := func(eval *Evaluator, ct *Ciphertext) string {
		dst := acc.Copy()
		eval.MulPlainAdd(dst, ct, shared)
		return dst.Digest()
	}

	const workers = 16
	var wg sync.WaitGroup
	errs := make(chan string, workers*6)
	check := func(what, got, want string) {
		if got != want {
			errs <- what + ": " + got + " != " + want
		}
	}
	// One evaluator per goroutine — evaluators carry mutable state (the
	// trace); only the plaintext operand is the shared object under test.
	// This is the serve-path shape: per-request evaluators, one cache.
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			eval := NewEvaluator(params, nil, nil)
			check("PCmult@top", eval.MulPlainNew(ctTop, shared).Digest(), wantMulTop)
			check("PCadd@top", eval.AddPlainNew(ctTop, shared).Digest(), wantAddTop)
			check("PCmult@low", eval.MulPlainNew(ctLow, shared).Digest(), wantMulLow)
			check("PCadd@low", eval.AddPlainNew(ctLow, shared).Digest(), wantAddLow)
			check("MulPlainAdd@top", mulPlainAdd(eval, ctTop), wantMacTop)
			check("MulPlainAdd@low", mulPlainAdd(eval, ctLow), wantMacLow)
		}()
	}
	wg.Wait()
	close(errs)
	if msg, ok := <-errs; ok {
		t.Fatalf("shared-plaintext result diverged from private-copy serial result: %s", msg)
	}
	if after := shared.Digest(); after != before {
		t.Fatalf("plaintext mutated by evaluator use: digest %s → %s", before, after)
	}
}

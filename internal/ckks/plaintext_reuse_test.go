package ckks

import (
	"sync"
	"testing"
)

// TestPlaintextReuseContract pins the contract the serve-path weight
// cache (hecnn.CompiledNetwork) is built on: a Plaintext used as an
// evaluator operand is strictly read-only. One encoded plaintext, shared
// by many concurrent AddPlainNew/MulPlainNew calls, and its Montgomery
// form, shared by MulPlainNew/MulPlainSum calls, at full and truncated
// levels, must (a) keep bit-identical residues and (b) produce result
// ciphertexts bit-identical to serial evaluation with a private
// normal-form copy of the same plaintext.
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
	sharedMont := tc.enc.Encode(vals, params.MaxLevel(), params.Scale)
	tc.enc.MForm(sharedMont)
	montBefore := sharedMont.Value.Copy()

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
	// MulPlainSum accumulates into a private top-level accumulator: the
	// unfused MulPlainNew + AddNew pairs are its reference, and the
	// low-level product drops the accumulator to the product's level.
	acc := tc.eval.MulPlainNew(ctTop, private)
	wantMacTop := tc.eval.AddNew(acc, tc.eval.MulPlainNew(ctTop, private)).Digest()
	wantMacLow := tc.eval.AddNew(tc.eval.AddNew(acc, tc.eval.MulPlainNew(ctTop, private)),
		tc.eval.MulPlainNew(ctLow, private)).Digest()
	mulPlainSum := func(eval *Evaluator, cts ...*Ciphertext) string {
		dst := acc.Copy()
		pts := make([]*Plaintext, len(cts))
		for i := range pts {
			pts[i] = sharedMont
		}
		eval.MulPlainSum(dst, cts, pts)
		return dst.Digest()
	}

	const workers = 16
	var wg sync.WaitGroup
	errs := make(chan string, workers*8)
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
			check("PCmult(Montgomery)@top", eval.MulPlainNew(ctTop, sharedMont).Digest(), wantMulTop)
			check("PCmult(Montgomery)@low", eval.MulPlainNew(ctLow, sharedMont).Digest(), wantMulLow)
			check("MulPlainSum@top", mulPlainSum(eval, ctTop), wantMacTop)
			check("MulPlainSum@top,low", mulPlainSum(eval, ctTop, ctLow), wantMacLow)
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
	if !params.Ring().Equal(sharedMont.Value, montBefore) {
		t.Fatal("Montgomery-form plaintext mutated by evaluator use")
	}
}

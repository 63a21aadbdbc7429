package ckks

import (
	"math/rand"
	"sync"
	"testing"

	"fxhenn/internal/parallel"
)

// pipelineInputs encrypts two fixed random vectors. The encryptor's PRNG is
// stateful, so inputs are made once per context and shared; evaluation
// itself is deterministic and safe to repeat concurrently.
func pipelineInputs(tc *testContext) (a, b *Ciphertext) {
	rng := rand.New(rand.NewSource(77))
	slots := tc.params.Slots()
	a = tc.encryptVec(randVec(slots, 1, rng), 4)
	b = tc.encryptVec(randVec(slots, 1, rng), 4)
	return a, b
}

// evalPipeline runs a fixed mix of every HE operation and returns the
// digests of each intermediate, so serial and parallel runs can be compared
// bit-for-bit.
func evalPipeline(tc *testContext, a, b *Ciphertext) []string {
	var digests []string
	add := tc.eval.AddNew(a, b)
	digests = append(digests, add.Digest())
	mul := tc.eval.MulNew(a, b) // CCmult + relinearize (keyswitch)
	digests = append(digests, mul.Digest())
	rs := tc.eval.RescaleNew(mul)
	digests = append(digests, rs.Digest())
	rot := tc.eval.RotateNew(a, 4) // automorphism + keyswitch
	digests = append(digests, rot.Digest())
	hs := tc.eval.RotateHoisted(rs, []int{1, 2, 4, 8}) // shared decomposition
	for _, k := range []int{1, 2, 4, 8} {
		digests = append(digests, hs[k].Digest())
	}
	return digests
}

// TestParallelMatchesSerialDigests pins the tentpole's determinism
// guarantee: with a multi-worker pool attached, every HE operation —
// including key-switching and hoisted rotations — produces ciphertexts
// bit-identical to the serial evaluator.
func TestParallelMatchesSerialDigests(t *testing.T) {
	rots := []int{1, 2, 4, 8}
	serial := newTestContext(t, rots)
	par := newTestContext(t, rots) // separate Parameters → separate ring
	par.eval.Trace = nil           // contract: concurrent-safe iff Trace nil
	pool := parallel.New(4)        // force real workers even on 1 CPU
	par.params.AttachPool(pool)
	defer par.params.AttachPool(nil)

	sa, sb := pipelineInputs(serial)
	pa, pb := pipelineInputs(par) // same seeds → bit-identical inputs
	if sa.Digest() != pa.Digest() || sb.Digest() != pb.Digest() {
		t.Fatal("contexts with equal seeds produced different inputs")
	}

	want := evalPipeline(serial, sa, sb)
	got := evalPipeline(par, pa, pb)
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("step %d: parallel digest %s != serial %s", i, got[i], want[i])
		}
	}
	if st := pool.Stats(); st.Dispatched+st.Inline == 0 {
		t.Fatal("pool never executed an item — parallel path not exercised")
	}
}

// TestConcurrentEvaluatorsShareRing hammers one Parameters/ring (and one
// pool) from many goroutines, the mlaas sharing shape; run under -race.
func TestConcurrentEvaluatorsShareRing(t *testing.T) {
	rots := []int{1, 2, 4, 8}
	tc := newTestContext(t, rots)
	tc.eval.Trace = nil
	pool := parallel.New(3)
	tc.params.AttachPool(pool)
	defer tc.params.AttachPool(nil)

	a, b := pipelineInputs(tc)
	want := evalPipeline(tc, a, b)
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := evalPipeline(tc, a, b)
			for i := range want {
				if got[i] != want[i] {
					errs <- "concurrent evaluation diverged from serial digests"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if msg, ok := <-errs; ok {
		t.Fatal(msg)
	}
}

// TestPipelineGoldenDigests pins the serial evalPipeline digests, so a
// rewrite of a kernel that claims to keep every ciphertext bit (the same
// operations in the same order per row) is checked against recorded bits
// rather than only against itself. A change that moves rounding on purpose
// updates these values and says so.
func TestPipelineGoldenDigests(t *testing.T) {
	golden := []struct{ step, digest string }{
		{"add", "a78dcbbdb7bef314afa6e3432eed7f7ead925b13767308e43159ff69801f4f44"},
		{"mul+relin", "1a75804c7357918da4944427586e3a93336d5f743351a49fc857f81a70d313c2"},
		{"rescale", "fe1f9df0f1750a7555d04d17cb24ee07ae45c5f93940680848925c1518f39742"},
		{"rotate", "64d16c88d77c1971e71090af1d4a83c0e96ef94ce0645610bb1d9a9228d4b1e6"},
		{"hoisted 1", "fa2e8a47ebdf9b2c32a2bae1f2846517fe1431e0ed7edfcc3b3324675fd9a1df"},
		{"hoisted 2", "4ab31bd9a82720ef74117858e04971a1f2bc1c62e4d09d241c06ba2a1d4f6691"},
		{"hoisted 4", "6482aef28a5ad0fdb6105d51f8c2633731d5d3c7a3395b9d99a23dcf3256784c"},
		{"hoisted 8", "82009c157074db4c8f701335cccc3cfc86744ac542aae768f66b99e6bc298d9d"},
	}
	tc := newTestContext(t, []int{1, 2, 4, 8})
	a, b := pipelineInputs(tc)
	got := evalPipeline(tc, a, b)
	if len(got) != len(golden) {
		t.Fatalf("pipeline produced %d digests, want %d", len(got), len(golden))
	}
	for i, g := range golden {
		if got[i] != g.digest {
			t.Errorf("%s: digest %s, want %s", g.step, got[i], g.digest)
		}
	}
}

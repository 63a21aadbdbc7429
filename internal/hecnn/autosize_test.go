package hecnn

import (
	"testing"

	"fxhenn/internal/ckks"
	"fxhenn/internal/cnn"
)

// TestPlanCacheBytesMatchesWarm pins PlanCacheBytes' exactness: the
// folded byte count must equal the cache's own resident-bytes
// accounting after a real unbounded Warm, in both compile modes.
func TestPlanCacheBytesMatchesWarm(t *testing.T) {
	params := tinyParams()
	for _, mode := range []struct {
		name string
		opts Options
	}{
		{"ladder", Options{}},
		{"bsgs", Options{BSGS: true}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			pnet := cnn.NewTinyNet()
			pnet.InitWeights(3)
			net := CompileWith(pnet, params.Slots(), mode.opts)
			need := PlanCacheBytes(net, params, params.MaxLevel())
			if need <= 0 {
				t.Fatalf("PlanCacheBytes = %d, want > 0", need)
			}
			cn := NewCompiledNetwork(net, params, ckks.NewEncoder(params), -1) // unbounded
			cn.Warm(params.MaxLevel())
			if got := cn.CacheStats().Bytes; got != need {
				t.Fatalf("warm cache holds %d bytes, PlanCacheBytes predicted %d", got, need)
			}
		})
	}
}

// TestAutoCacheBytesBSGSMNIST is the regression test for the silent
// BSGS cache-thrash (PERFORMANCE.md §5): the MNIST BSGS operand set
// exceeds the 256 MiB default budget, so a server warming it under the
// default evicts its own working set on every pass — strictly worse
// than no cache. The fix: AutoPlaintextCacheBytes sizes the budget from
// the compiled operand set, and a warm + steady-state pass under it
// must see zero evictions. The encode seam is stubbed so the test
// measures cache accounting (which uses the declared PlaintextBytes
// sizes either way) without paying for a thousand real MNIST encodes.
func TestAutoCacheBytesBSGSMNIST(t *testing.T) {
	params := ckks.ParamsMNIST()
	pnet := cnn.NewMNISTNet()
	pnet.InitWeights(1)
	net := CompileWith(pnet, params.Slots(), Options{BSGS: true})

	need := PlanCacheBytes(net, params, params.MaxLevel())
	if need <= DefaultPlaintextCacheBytes {
		t.Fatalf("BSGS MNIST operand set is %d bytes, expected to exceed the %d default — the scenario this fix exists for is gone",
			need, int64(DefaultPlaintextCacheBytes))
	}
	auto := AutoPlaintextCacheBytes(net, params, params.MaxLevel())
	if auto < need {
		t.Fatalf("auto budget %d below the operand set %d", auto, need)
	}

	enc := ckks.NewEncoder(params)
	stub := enc.Encode(make([]float64, params.Slots()), params.MaxLevel(), params.Scale)
	warmTwice := func(budget int64) (evictions int64) {
		cn := NewCompiledNetwork(net, params, enc, budget)
		cn.encode = func(Plain, operandKey) *ckks.Plaintext { return stub }
		cn.Warm(params.MaxLevel()) // fill
		cn.Warm(params.MaxLevel()) // steady state: every operand should hit
		return cn.CacheStats().Evictions
	}

	// Under the old default the warm pass must thrash (that is the bug);
	// under the auto budget the steady state must be eviction-free.
	if ev := warmTwice(DefaultPlaintextCacheBytes); ev == 0 {
		t.Fatalf("default budget fit the BSGS operand set (%d bytes) without evicting — regression scenario vanished", need)
	}
	if ev := warmTwice(auto); ev != 0 {
		t.Fatalf("auto-sized budget %d still evicted %d entries warming a %d-byte operand set", auto, ev, need)
	}
}

package hecnn

import (
	"testing"

	"fxhenn/internal/ckks"
	"fxhenn/internal/cnn"
	"fxhenn/internal/ring"
)

// TestPlanCacheBytesMatchesWarm pins PlanCacheBytes' exactness: the
// folded byte count equals the table's own resident bytes after a real
// Warm with every operand resident, in both compile modes and for the
// fixture whose shared scalar fills two slots, one per form.
func TestPlanCacheBytesMatchesWarm(t *testing.T) {
	params := tinyParams()
	for _, mode := range []struct {
		name string
		opts Options
	}{
		{"ladder", Options{}},
		{"bsgs", Options{BSGS: true}},
		{"two-form", Options{}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			var net *Network
			if mode.name == "two-form" {
				net = &Network{prog: lowerLayers([]Layer{sharedConstLayer{}}, 2)}
			} else {
				pnet := cnn.NewTinyNet()
				pnet.InitWeights(3)
				net = CompileWith(pnet, params.Slots(), mode.opts)
			}
			need := PlanCacheBytes(net, params, params.MaxLevel())
			if need <= 0 {
				t.Fatalf("PlanCacheBytes = %d, want > 0", need)
			}
			cn := NewCompiledNetwork(net, params, ckks.NewEncoder(params), 0)
			cn.Warm(params.MaxLevel())
			if got := cn.CacheStats().Bytes; got != need {
				t.Fatalf("warm table holds %d bytes, PlanCacheBytes predicted %d", got, need)
			}
		})
	}
}

// TestAutoCacheBytesBSGSMNIST: the MNIST BSGS operand set (~343 MB,
// PERFORMANCE.md §5) is wholly resident under the auto budget — and
// under the default 0 — so a warm table serves every consumption of an
// evaluation's operand fold without one encode. The encode seam is
// stubbed, so the test checks residency, not a thousand real MNIST
// encodes; the table charges each slot its key's size either way.
func TestAutoCacheBytesBSGSMNIST(t *testing.T) {
	params := ckks.ParamsMNIST()
	pnet := cnn.NewMNISTNet()
	pnet.InitWeights(1)
	net := CompileWith(pnet, params.Slots(), Options{BSGS: true})
	top := params.MaxLevel()

	need := PlanCacheBytes(net, params, top)
	if auto := AutoPlaintextCacheBytes(net, params, top); auto != need {
		t.Fatalf("auto budget %d != operand set %d", auto, need)
	}
	enc := ckks.NewEncoder(params)
	for _, budget := range []int64{need, 0} {
		cn := NewCompiledNetwork(net, params, enc, budget)
		cn.encode = func(_ Plain, k operandKey) *ckks.Plaintext {
			// Residues are never read: only the key the table checks.
			return &ckks.Plaintext{Value: &ring.Poly{Coeffs: make([][]uint64, k.level)}, Scale: k.scale, IsMontgomery: k.mont}
		}
		cn.Warm(top)
		warm := cn.CacheStats()
		if warm.Bytes != need {
			t.Fatalf("budget %d: %d resident bytes, want the whole %d-byte operand set", budget, warm.Bytes, need)
		}
		cn.encode = func(Plain, operandKey) *ckks.Plaintext {
			t.Fatalf("budget %d: a warm BSGS operand was not resident", budget)
			return nil
		}
		uses := int64(0)
		net.prog.operands(&params, top, func(k operandKey) {
			uses++
			cn.source(net.prog.plain(k.plain), k)
		})
		if hits := cn.CacheStats().Hits; hits != uses {
			t.Fatalf("budget %d: %d of %d uses served resident", budget, hits, uses)
		}
	}
}

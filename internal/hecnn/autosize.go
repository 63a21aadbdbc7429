package hecnn

// Cache budget sizing from the compiled operand set. The plaintext cache
// default (DefaultPlaintextCacheBytes, 256 MiB) was sized for the ladder
// compile mode; the BSGS diagonal mode's operand set is far larger
// (~1081 plaintexts ≈ 343 MB at MNIST parameters — PERFORMANCE.md §5),
// so a server warming a BSGS network under the default silently thrashes
// the LRU: every request re-encodes the operands the previous one
// evicted, which is strictly worse than no cache at all. PlanCacheBytes
// measures the exact resident footprint of a network's warm operand set
// — by dry-running the compiled plan's float64 level/scale schedule, the
// same walk Warm performs, without encoding anything — and
// AutoPlaintextCacheBytes turns it into a safe budget. Serving layers
// use it when no explicit budget is configured.

import (
	"fxhenn/internal/ckks"
)

// PlanCacheBytes returns the exact resident size of net's warm
// encoded-plaintext operand set at startLevel: the bytes a
// CompiledNetwork's cache holds after Warm(startLevel) with no budget
// pressure. It performs no encoding — Warm's own dry run visits every
// operand under the key the cache would fill, and each distinct (layer,
// seq, level, scale) key is charged params.PlaintextBytes at its consumed
// level, matching the cache's own size accounting byte for byte.
func PlanCacheBytes(net *Network, params ckks.Parameters, startLevel int) int64 {
	type opKey struct {
		layer string
		seq   int
		level int
		scale float64
	}
	seen := make(map[opKey]bool)
	var total int64
	visit := func(layer string, seq, level int, scale float64, _ Plain) *ckks.Plaintext {
		if k := (opKey{layer, seq, level, scale}); !seen[k] {
			seen[k] = true
			total += int64(params.PlaintextBytes(level))
		}
		return nil
	}
	net.dryRun(&dryBackend{params: &params, visit: visit}, startLevel, nil)
	return total
}

// AutoPlaintextCacheBytes sizes a cache budget for net: the default
// budget when the warm operand set fits it, otherwise the operand set
// plus 12.5% headroom so steady state never evicts. This is the policy
// behind a serving layer's "cache-bytes 0 = auto" default.
func AutoPlaintextCacheBytes(net *Network, params ckks.Parameters, startLevel int) int64 {
	need := PlanCacheBytes(net, params, startLevel)
	if need <= DefaultPlaintextCacheBytes {
		return DefaultPlaintextCacheBytes
	}
	return need + need/8
}

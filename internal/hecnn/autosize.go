package hecnn

// Cache budget sizing from the compiled operand set. The plaintext cache
// default (DefaultPlaintextCacheBytes, 256 MiB) was sized for the ladder
// compile mode; the BSGS diagonal mode's operand set is far larger
// (~1081 plaintexts ≈ 343 MB at MNIST parameters — PERFORMANCE.md §5),
// so a server warming a BSGS network under the default silently thrashes
// the LRU: every request re-encodes the operands the previous one
// evicted, which is strictly worse than no cache at all. PlanCacheBytes
// measures the exact resident footprint of a network's warm operand set
// — by folding the program's float64 level/scale schedule, the same fold
// Warm performs, without encoding anything — and
// AutoPlaintextCacheBytes turns it into a safe budget. Serving layers
// use it when no explicit budget is configured.

import (
	"fxhenn/internal/ckks"
)

// PlanCacheBytes returns the exact resident size of net's warm
// encoded-plaintext operand set at startLevel: the bytes a
// CompiledNetwork's cache holds after Warm(startLevel) with no budget
// pressure. It performs no encoding — each distinct operand key Warm's
// fold visits is charged params.PlaintextBytes at its consumed level,
// matching the cache's own size accounting byte for byte.
func PlanCacheBytes(net *Network, params ckks.Parameters, startLevel int) int64 {
	seen := make(map[operandKey]bool)
	var total int64
	net.prog.operands(&params, startLevel, func(k operandKey) {
		if !seen[k] {
			seen[k] = true
			total += int64(params.PlaintextBytes(k.level))
		}
	})
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

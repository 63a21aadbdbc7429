package hecnn

import (
	"fmt"
	"sync/atomic"

	"fxhenn/internal/cache"
	"fxhenn/internal/ckks"
	"fxhenn/internal/cnn"
	"fxhenn/internal/telemetry"
)

// DefaultPlaintextCacheBytes is the default byte budget for a compiled
// network's encoded-plaintext cache: large enough to hold every weight
// and bias plaintext of the paper networks at their consumed levels,
// small enough to bound a serving process.
const DefaultPlaintextCacheBytes = 256 << 20

// ptKey identifies one encoded plaintext operand of the compiled plan.
// Evaluation is deterministic, so the seq-th plaintext operand consumed
// inside a named layer is always the same slot vector; level and scale
// key the CKKS form it must be encoded in (the scale schedule is exact
// float64 arithmetic, reproduced bit-for-bit by Warm's dry run). gen
// isolates invalidation generations: entries filled by a backend created
// before an Invalidate can never serve a backend created after it.
type ptKey struct {
	gen   uint64
	layer string
	seq   int
	level int
	scale float64
}

// CompiledNetwork is the serve-path handle for a compiled HE-CNN: the
// network plus a byte-bounded, singleflight cache of every plaintext
// weight/bias operand pre-encoded at the exact (level, scale) the
// compiled rescale schedule consumes it at. After Warm, steady-state
// inference through Backend performs zero Encoder.Encode calls and
// produces bit-identical ciphertexts to the uncached path (pinned by
// TestCompiledZeroEncodeSteadyState).
//
// A CompiledNetwork is safe to share across concurrent requests: the
// cache is concurrency-safe with singleflight fills, the encoder is only
// read, and cached *ckks.Plaintext values rely on the evaluator's
// plaintext reuse contract (ckks.Evaluator never mutates plaintext
// operands). Each request still needs its own Backend, as with
// NewCryptoBackend.
//
// When the network's parameters or compile options (e.g. Options.BSGS)
// change, the plan's operand stream and scale schedule change with them:
// Rebind swaps in the recompiled network and invalidates every cached
// plaintext atomically.
type CompiledNetwork struct {
	net    atomic.Pointer[Network]
	params ckks.Parameters
	enc    *ckks.Encoder
	pts    *cache.Cache[ptKey, *ckks.Plaintext]
	gen    atomic.Uint64
	// encodeCalls counts actual Encoder.Encode invocations — the number
	// the steady-state-zero-encodes test pins. encode is the seam that
	// test uses to fail on any encode after Warm.
	encodeCalls atomic.Int64
	encode      func(v []float64, level int, scale float64) *ckks.Plaintext
}

// NewCompiledNetwork builds the cached handle for net. maxBytes bounds
// the resident encoded plaintexts (0 selects
// DefaultPlaintextCacheBytes; negative disables the bound). The encoder
// must belong to params — normally the serving Context's Encoder.
func NewCompiledNetwork(net *Network, params ckks.Parameters, enc *ckks.Encoder, maxBytes int64) *CompiledNetwork {
	if maxBytes == 0 {
		maxBytes = DefaultPlaintextCacheBytes
	}
	if maxBytes < 0 {
		maxBytes = 0 // cache.New: no bound
	}
	cn := &CompiledNetwork{params: params, enc: enc, pts: cache.New[ptKey, *ckks.Plaintext](maxBytes)}
	cn.net.Store(net)
	cn.encode = func(v []float64, level int, scale float64) *ckks.Plaintext {
		cn.encodeCalls.Add(1)
		return enc.Encode(v, level, scale)
	}
	return cn
}

// Network returns the currently bound compiled network.
func (cn *CompiledNetwork) Network() *Network { return cn.net.Load() }

// SetMetrics exposes the plaintext cache's hit/miss/eviction/size metrics
// on reg as cache_*{cache="hecnn_plaintext"}.
func (cn *CompiledNetwork) SetMetrics(reg *telemetry.Registry) {
	cn.pts.SetMetrics(reg, "hecnn_plaintext")
}

// CacheStats snapshots the plaintext cache counters.
func (cn *CompiledNetwork) CacheStats() cache.Stats { return cn.pts.Stats() }

// EncodeCalls returns the cumulative number of Encoder.Encode calls the
// handle has performed (cache misses). After Warm it must not grow under
// steady-state traffic.
func (cn *CompiledNetwork) EncodeCalls() int64 { return cn.encodeCalls.Load() }

// Invalidate drops every cached plaintext and starts a new key
// generation: backends created before the call cannot repopulate entries
// visible to backends created after it.
func (cn *CompiledNetwork) Invalidate() {
	cn.gen.Add(1)
	cn.pts.Purge()
}

// Rebind swaps in a recompiled network (changed weights, parameters-
// compatible recompile, or a different Options.BSGS mode) and
// invalidates the cache. The new network must target the same CKKS
// parameters — the encoder is reused.
func (cn *CompiledNetwork) Rebind(net *Network) {
	cn.net.Store(net)
	cn.Invalidate()
}

// Warm pre-encodes every plaintext weight and bias operand at the exact
// levels and scales the compiled plan consumes, by dry-running the plan
// with the real scale schedule (no ring operations). startLevel is the
// fresh-input level — params.MaxLevel() for the serving path. After Warm
// returns, an inference from startLevel hits the cache on every operand.
func (cn *CompiledNetwork) Warm(startLevel int) {
	cn.net.Load().dryRun(&dryBackend{params: &cn.params, visit: cn.source(cn.gen.Load())}, startLevel, nil)
}

// Backend returns a per-request crypto backend that serves every
// plaintext operand from the cache (encoding on miss). ctx must share
// the handle's parameters; rec may be nil to skip tracing. The returned
// backend is single-request, like NewCryptoBackend's.
func (cn *CompiledNetwork) Backend(ctx *Context, rec *Recorder) Backend {
	return newCryptoBackend(ctx, rec, cn.source(cn.gen.Load()))
}

// Run executes the network functionally through the cached backend:
// pack, encrypt, evaluate (zero weight encodes when warm), decrypt. It
// is the cached counterpart of Network.Run. Note the input packing still
// encodes and encrypts the image — the cache covers the model's
// plaintext operands, not per-request data.
func (cn *CompiledNetwork) Run(ctx *Context, img *cnn.Tensor) ([]float64, *Recorder) {
	rec := NewRecorder()
	return cn.net.Load().run(ctx, img, cn.Backend(ctx, rec), nil), rec
}

// source returns the positional-cache plainSource of generation gen: the
// operand for (layer, seq) at the given level/scale, encoded on first
// use. Concurrent requests for the same operand share one encode
// (singleflight).
func (cn *CompiledNetwork) source(gen uint64) plainSource {
	return func(layer string, seq, level int, scale float64, w Plain) *ckks.Plaintext {
		key := ptKey{gen: gen, layer: layer, seq: seq, level: level, scale: scale}
		pt, err := cn.pts.GetOrCompute(key, func() (*ckks.Plaintext, int64, error) {
			return cn.encode(w.Make(), level, scale), int64(cn.params.PlaintextBytes(level)), nil
		})
		if err != nil {
			// The fill cannot fail; keep the impossible branch loud.
			panic(fmt.Sprintf("hecnn: plaintext cache fill: %v", err))
		}
		return pt
	}
}

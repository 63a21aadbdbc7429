package hecnn

import (
	"fmt"
	"sync/atomic"

	"fxhenn/internal/cache"
	"fxhenn/internal/ckks"
	"fxhenn/internal/cnn"
	"fxhenn/internal/telemetry"
)

// cbKey identifies one broadcast-constant plaintext of a batched plan.
// Unlike the LoLa cache's positional (layer, seq) key, batched operands
// are keyed by VALUE: every weight and bias is one scalar broadcast
// across the slots, so two operands with the same (value, level, scale)
// encode to the identical plaintext regardless of where the plan consumes
// them. Value keying dedupes massively — a conv layer reuses each of its
// kernel weights at every output position, so FxHENN-MNIST's ~107K
// operand consumptions collapse to a few thousand distinct entries. gen
// isolates invalidation generations exactly as ptKey does.
type cbKey struct {
	gen   uint64
	value float64
	level int
	scale float64
}

// CompiledBatched is the serve-path handle for a batched network: the
// BatchedNetwork plus a byte-bounded singleflight cache of broadcast
// plaintexts pre-encoded at the (level, scale) pairs the batched rescale
// schedule consumes. After Warm, steady-state batched evaluation performs
// zero encoder calls (pinned by TestCompiledBatchedZeroEncodeSteadyState)
// — on top of EncodeConst already making each miss FFT-free.
//
// A CompiledBatched is safe to share across concurrent flushes: the cache
// is concurrency-safe, encoding is read-only on the encoder, and cached
// plaintexts rely on the evaluator's plaintext reuse contract. Each flush
// still uses its own Backend.
type CompiledBatched struct {
	net         *BatchedNetwork
	params      ckks.Parameters
	enc         *ckks.Encoder
	pts         *cache.Cache[cbKey, *ckks.Plaintext]
	gen         atomic.Uint64
	encodeCalls atomic.Int64
	encode      func(c float64, level int, scale float64) *ckks.Plaintext
}

// NewCompiledBatched builds the cached handle. maxBytes bounds resident
// plaintexts (0 selects DefaultPlaintextCacheBytes; negative disables the
// bound). The encoder must belong to params — the batched serve ring, not
// the LoLa ring.
func NewCompiledBatched(net *BatchedNetwork, params ckks.Parameters, enc *ckks.Encoder, maxBytes int64) *CompiledBatched {
	if maxBytes == 0 {
		maxBytes = DefaultPlaintextCacheBytes
	}
	if maxBytes < 0 {
		maxBytes = 0
	}
	cb := &CompiledBatched{net: net, params: params, enc: enc,
		pts: cache.New[cbKey, *ckks.Plaintext](maxBytes)}
	cb.encode = func(c float64, level int, scale float64) *ckks.Plaintext {
		cb.encodeCalls.Add(1)
		return enc.EncodeConst(c, level, scale)
	}
	return cb
}

// Network returns the wrapped batched network.
func (cb *CompiledBatched) Network() *BatchedNetwork { return cb.net }

// SetMetrics exposes the cache's hit/miss/eviction/size metrics on reg as
// cache_*{cache="hecnn_batched_plaintext"}.
func (cb *CompiledBatched) SetMetrics(reg *telemetry.Registry) {
	cb.pts.SetMetrics(reg, "hecnn_batched_plaintext")
}

// CacheStats snapshots the plaintext cache counters.
func (cb *CompiledBatched) CacheStats() cache.Stats { return cb.pts.Stats() }

// EncodeCalls returns the cumulative EncodeConst calls (cache misses).
func (cb *CompiledBatched) EncodeCalls() int64 { return cb.encodeCalls.Load() }

// Invalidate drops every cached plaintext and starts a new generation.
func (cb *CompiledBatched) Invalidate() {
	cb.gen.Add(1)
	cb.pts.Purge()
}

// Warm pre-encodes every broadcast operand at the exact levels and scales
// the batched plan consumes, by dry-running the plan with the real
// float64 scale schedule (no ring operations). startLevel is the fresh
// batched-input level — params.MaxLevel() for the serving path.
func (cb *CompiledBatched) Warm(startLevel int) {
	b := &dryBackend{params: &cb.params, visit: cb.source(cb.gen.Load())}
	cb.net.Evaluate(b, freshCTs(cb.net.InputSize(), b.start(startLevel)))
}

// Backend returns a per-flush crypto backend serving broadcast operands
// from the cache. ctx must share the handle's parameters; rec may be nil.
func (cb *CompiledBatched) Backend(ctx *Context, rec *Recorder) Backend {
	return newCryptoBackend(ctx, rec, cb.source(cb.gen.Load()))
}

// EvaluateBatch combines per-request position-major ciphertext vectors
// (CombineBatch — free at occupancy 1) and evaluates the batched network
// through the cached backend, returning the logit ciphertexts each member
// decrypts at its own slot. Evaluation-pipeline panics (missing Galois
// keys, hostile levels) are recovered into the returned error: members
// arrive from the network.
func (cb *CompiledBatched) EvaluateBatch(ctx *Context, members [][]*CT) (outs []*CT, rec *Recorder, err error) {
	defer func() {
		if r := recover(); r != nil {
			outs, rec = nil, nil
			err = fmt.Errorf("hecnn: batched evaluation failed: %v", r)
		}
	}()
	rec = NewRecorder()
	b := cb.Backend(ctx, rec)
	combined, err := cb.net.CombineBatch(b, members)
	if err != nil {
		return nil, nil, err
	}
	return cb.net.Evaluate(b, combined), rec, nil
}

// RunBatch is BatchedNetwork.RunBatch through the cached backend: the
// steady-state (zero-encode) counterpart, used by benchmarks and the
// differential harness.
func (cb *CompiledBatched) RunBatch(ctx *Context, images []*cnn.Tensor) ([][]float64, *Recorder, error) {
	rec := NewRecorder()
	logits, err := cb.net.runBatch(ctx, images, cb.Backend(ctx, rec))
	if err != nil {
		return nil, nil, err
	}
	return logits, rec, nil
}

// source returns the value-cache plainSource of generation gen: the
// broadcast plaintext for w's value at (level, scale), encoded on first
// use with singleflight fills.
func (cb *CompiledBatched) source(gen uint64) plainSource {
	return func(_ string, _, level int, scale float64, w Plain) *ckks.Plaintext {
		if !w.IsConst {
			// Batched plans only emit broadcast operands; a vector operand
			// would alias under value keying, so encode it directly.
			cb.encodeCalls.Add(1)
			return cb.enc.Encode(w.Make(), level, scale)
		}
		key := cbKey{gen: gen, value: w.Const, level: level, scale: scale}
		pt, err := cb.pts.GetOrCompute(key, func() (*ckks.Plaintext, int64, error) {
			return cb.encode(w.Const, level, scale), int64(cb.params.PlaintextBytes(level)), nil
		})
		if err != nil {
			panic(fmt.Sprintf("hecnn: batched plaintext cache fill: %v", err))
		}
		return pt
	}
}

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

// plainCache is the serve-path core of CompiledNetwork and
// CompiledBatched: a byte-bounded, singleflight cache of one program's
// plaintext operands, each encoded at the exact (level, scale) the
// program's schedule consumes it at, in the form its consumer takes, and
// keyed by (plain, level, scale, form).
// Lowering interns an IsConst operand by value, so one broadcast scalar
// consumed at one (level, scale, form) is one entry wherever the program uses it
// — a batched conv reuses each kernel weight at every output position, so
// FxHENN-MNIST's ~107K batched operand consumptions collapse to a few
// thousand entries. Every other operand is its own entry.
//
// A handle is safe to share across concurrent requests: the cache is
// concurrency-safe with singleflight fills, the encoder is only read, and
// cached *ckks.Plaintext values rely on the evaluator's plaintext reuse
// contract (ckks.Evaluator never mutates plaintext operands). Each request
// still needs its own Backend. A handle is bound to one program for its
// life: a new model or key generation builds a new handle.
type plainCache struct {
	prog   *program
	params ckks.Parameters
	metric string
	pts    *cache.Cache[operandKey, *ckks.Plaintext]
	// encodeCalls counts actual encoder invocations — the number the
	// steady-state-zero-encodes tests pin. encode is the seam those tests
	// use to fail on any encode after Warm.
	encodeCalls atomic.Int64
	encode      plainSource
}

// init sets up the cache for prog. maxBytes bounds the resident encoded
// plaintexts (0 selects DefaultPlaintextCacheBytes; negative disables the
// bound). The encoder must belong to params.
func (pc *plainCache) init(prog *program, params ckks.Parameters, enc *ckks.Encoder, maxBytes int64, metric string) {
	if maxBytes == 0 {
		maxBytes = DefaultPlaintextCacheBytes
	}
	if maxBytes < 0 {
		maxBytes = 0 // cache.New: no bound
	}
	pc.prog, pc.params, pc.metric = prog, params, metric
	pc.pts = cache.New[operandKey, *ckks.Plaintext](maxBytes)
	pc.encode = func(w Plain, k operandKey) *ckks.Plaintext {
		pc.encodeCalls.Add(1)
		return encodePlain(enc, w, k)
	}
}

// SetMetrics exposes the plaintext cache's hit/miss/eviction/size metrics
// on reg as cache_*{cache="hecnn_plaintext"} for a CompiledNetwork and
// cache_*{cache="hecnn_batched_plaintext"} for a CompiledBatched.
func (pc *plainCache) SetMetrics(reg *telemetry.Registry) {
	pc.pts.SetMetrics(reg, pc.metric)
}

// CacheStats snapshots the plaintext cache counters.
func (pc *plainCache) CacheStats() cache.Stats { return pc.pts.Stats() }

// EncodeCalls returns the cumulative number of encoder calls the handle
// has performed (cache misses). After Warm it must not grow under
// steady-state traffic.
func (pc *plainCache) EncodeCalls() int64 { return pc.encodeCalls.Load() }

// Warm pre-encodes every plaintext operand at the exact level and scale
// the program consumes it at from inputs at startLevel —
// params.MaxLevel() for the serving path — by folding the program's
// schedule (no ring operations). After Warm returns, an evaluation from
// startLevel hits the cache on every operand.
func (pc *plainCache) Warm(startLevel int) {
	pc.prog.operands(&pc.params, startLevel, func(k operandKey) {
		pc.get(pc.prog.plain(k.plain), k)
	})
}

// Backend returns a per-request crypto backend that serves every
// plaintext operand from the cache (encoding on miss). ctx must share the
// handle's parameters; rec may be nil to skip tracing. The returned
// backend is single-request, like NewCryptoBackend's.
func (pc *plainCache) Backend(ctx *Context, rec *Recorder) Backend {
	return &cryptoBackend{ctx: ctx, rec: rec, plain: pc.source}
}

// source is the cached plainSource. An operand from outside the program
// is encoded uncached.
func (pc *plainCache) source(w Plain, k operandKey) *ckks.Plaintext {
	if w.id == 0 {
		return pc.encode(w, k)
	}
	return pc.get(w, k)
}

// get returns w encoded under k, encoding on first use; concurrent
// requests for one key share one encode.
func (pc *plainCache) get(w Plain, k operandKey) *ckks.Plaintext {
	pt, err := pc.pts.GetOrCompute(k, func() (*ckks.Plaintext, int64, error) {
		return pc.encode(w, k), int64(pc.params.PlaintextBytes(k.level)), nil
	})
	if err != nil {
		// The fill cannot fail; keep the impossible branch loud.
		panic(fmt.Sprintf("hecnn: plaintext cache fill: %v", err))
	}
	return pt
}

// CompiledNetwork is the serve-path handle for a compiled HE-CNN: the
// network plus the plaintext cache of its program. After Warm,
// steady-state inference through Backend performs zero Encoder.Encode
// calls and produces bit-identical ciphertexts to the uncached path
// (pinned by TestCompiledZeroEncodeSteadyState).
type CompiledNetwork struct{ plainCache }

// NewCompiledNetwork builds the cached handle for net. maxBytes bounds
// the resident encoded plaintexts (0 selects
// DefaultPlaintextCacheBytes; negative disables the bound). The encoder
// must belong to params — normally the serving Context's Encoder.
func NewCompiledNetwork(net *Network, params ckks.Parameters, enc *ckks.Encoder, maxBytes int64) *CompiledNetwork {
	cn := &CompiledNetwork{}
	cn.init(net.prog, params, enc, maxBytes, "hecnn_plaintext")
	return cn
}

// CompiledBatched is the serve-path handle for a batched network: the
// BatchedNetwork plus the plaintext cache of its program. After Warm,
// steady-state batched evaluation performs zero encoder calls (pinned by
// TestCompiledBatchedZeroEncodeSteadyState) — on top of EncodeConst
// already making each miss FFT-free.
type CompiledBatched struct {
	plainCache
	net *BatchedNetwork
}

// NewCompiledBatched builds the cached handle. maxBytes bounds resident
// plaintexts (0 selects DefaultPlaintextCacheBytes; negative disables the
// bound). The encoder must belong to params — the batched serve ring, not
// the LoLa ring.
func NewCompiledBatched(net *BatchedNetwork, params ckks.Parameters, enc *ckks.Encoder, maxBytes int64) *CompiledBatched {
	cb := &CompiledBatched{net: net}
	cb.init(net.prog, params, enc, maxBytes, "hecnn_batched_plaintext")
	return cb
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

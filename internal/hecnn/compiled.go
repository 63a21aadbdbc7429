package hecnn

import (
	"sync/atomic"

	"fxhenn/internal/cache"
	"fxhenn/internal/ckks"
	"fxhenn/internal/cnn"
	"fxhenn/internal/telemetry"
)

// operandTable is the serve-path core of CompiledNetwork and
// CompiledBatched: one program's plaintext operands, resolved at load.
// Warm encodes each resident operand once, at the exact (level, scale)
// the program's schedule consumes it at and in the form its consumer
// takes, into a dense slice indexed by plain id and form (program.slot).
// Like FxHENN's buffer plan (§VI-A), which weights stay on chip is fixed
// at design time, not discovered by a cache: residents is the one rule,
// and PlanCacheBytes folds the same rule to size it.
//
// A lookup indexes the slot and checks the request's key against the
// plaintext's own level, scale and form; a mismatch — another start
// level, or a second key for one (id, form) — an empty slot or an
// operand from outside the program is encoded per use and not kept.
// Correctness never depends on residency, and a lookup takes no lock and
// allocates nothing. Lowering interns an IsConst operand by value, so one
// broadcast scalar consumed in one form is one slot wherever the program
// uses it, and the slot holds ckks's constant form: one word per level.
//
// The table is immutable once Warm returns, so a warm handle is safe to
// share across concurrent requests: the encoder is only read, and
// resident *ckks.Plaintext values rely on the evaluator's plaintext reuse
// contract (ckks.Evaluator never mutates plaintext operands). Warm itself
// runs once, before the handle serves. Each request still needs its own
// Backend. A handle is bound to one program for its life: a new model or
// key generation builds a new handle.
type operandTable struct {
	prog     *program
	params   ckks.Parameters
	maxBytes int64
	metric   string
	slots    []*ckks.Plaintext // by program.slot; nil is not resident
	entries  int
	bytes    int64
	// hits counts resident lookups and encodeCalls actual encoder
	// invocations — the number the steady-state-zero-encodes tests pin.
	// encode is the seam those tests use to fail on any encode after Warm.
	hits, encodeCalls atomic.Int64
	encode            plainSource

	mHits, mMisses   *telemetry.Counter
	mEntries, mBytes *telemetry.Gauge
}

// init sets up the table for prog under the residency budget maxBytes
// (see NewCompiledNetwork). The encoder must belong to params.
func (t *operandTable) init(prog *program, params ckks.Parameters, enc *ckks.Encoder, maxBytes int64, metric string) {
	t.prog, t.params, t.maxBytes, t.metric = prog, params, maxBytes, metric
	t.encode = func(w Plain, k operandKey) *ckks.Plaintext {
		t.encodeCalls.Add(1)
		t.mMisses.Inc()
		return encodePlain(enc, w, k)
	}
}

// SetMetrics exposes the table on reg as cache_*{cache="hecnn_plaintext"}
// for a CompiledNetwork and cache_*{cache="hecnn_batched_plaintext"} for
// a CompiledBatched: hits are resident lookups, misses encoder calls, and
// the entries and bytes gauges sum the resident plaintexts of every live
// table that shares the registry. Call it before Warm.
func (t *operandTable) SetMetrics(reg *telemetry.Registry) {
	l := telemetry.L("cache", t.metric)
	t.mHits = reg.Counter(cache.MetricHits, "operand lookups served from a resident plaintext", l)
	t.mMisses = reg.Counter(cache.MetricMisses, "operand encoder calls", l)
	t.mEntries = reg.Gauge(cache.MetricEntries, "resident operand plaintexts", l)
	t.mBytes = reg.Gauge(cache.MetricBytes, "resident operand plaintext bytes", l)
}

// Release withdraws the table's resident plaintexts from the entries and
// bytes gauges, for a serving layer dropping the handle. Requests still
// holding one of its Backends finish on the table.
func (t *operandTable) Release() { t.publish(-1) }

func (t *operandTable) publish(sign float64) {
	t.mEntries.Add(sign * float64(t.entries))
	t.mBytes.Add(sign * float64(t.bytes))
}

// CacheStats snapshots the table's counters.
func (t *operandTable) CacheStats() cache.Stats {
	return cache.Stats{Hits: t.hits.Load(), Misses: t.encodeCalls.Load(), Entries: t.entries, Bytes: t.bytes}
}

// EncodeCalls returns the cumulative number of encoder calls the handle
// has performed: Warm's, then one per non-resident use. Under a budget
// that keeps every operand resident it does not grow after Warm.
func (t *operandTable) EncodeCalls() int64 { return t.encodeCalls.Load() }

// Warm builds the table, once, for inputs at startLevel —
// params.MaxLevel() for the serving path — encoding every resident
// operand by folding the program's schedule (no ring operations). With
// every operand resident, an evaluation from startLevel then encodes
// nothing.
func (t *operandTable) Warm(startLevel int) {
	t.slots = make([]*ckks.Plaintext, t.prog.slots())
	t.prog.residents(&t.params, startLevel, t.maxBytes, func(s int, k operandKey) {
		t.slots[s] = t.encode(t.prog.plain(k.plain), k)
		t.entries++
		t.bytes += k.bytes(&t.params)
	})
	t.publish(1)
}

// Backend returns a per-request crypto backend that takes its plaintext
// operands from the table. ctx must share the handle's parameters; rec
// may be nil to skip tracing. The returned backend is single-request,
// like NewCryptoBackend's.
func (t *operandTable) Backend(ctx *Context, rec *Recorder) Backend {
	return newCryptoBackend(ctx, rec, t.source)
}

// source is the table's plainSource: the resident plaintext when its key
// matches k, a per-use encoding otherwise.
func (t *operandTable) source(w Plain, k operandKey) *ckks.Plaintext {
	if s := t.prog.slot(w.id, k.mont); uint(s) < uint(len(t.slots)) {
		if pt := t.slots[s]; pt != nil && pt.Level() == k.level && pt.Scale == k.scale && pt.IsMontgomery == k.mont {
			t.hits.Add(1)
			t.mHits.Inc()
			return pt
		}
	}
	return t.encode(w, k)
}

// PlanCacheBytes returns the exact resident size of net's operand table
// after Warm(startLevel) with every operand resident — the budget that
// keeps steady state encode-free. It folds the table's residency rule
// without encoding anything, charging each resident slot what Warm does:
// params.PlaintextBytes at its consumed level, or one word per level for
// a broadcast scalar.
func PlanCacheBytes(net *Network, params ckks.Parameters, startLevel int) int64 {
	var total int64
	net.prog.residents(&params, startLevel, 0, func(_ int, k operandKey) {
		total += k.bytes(&params)
	})
	return total
}

// AutoPlaintextCacheBytes is PlanCacheBytes: the budget that keeps net's
// whole operand set resident, for callers that pass it explicitly.
func AutoPlaintextCacheBytes(net *Network, params ckks.Parameters, startLevel int) int64 {
	return PlanCacheBytes(net, params, startLevel)
}

// CompiledNetwork is the serve-path handle for a compiled HE-CNN: the
// network's operand table. After Warm, steady-state inference through
// Backend performs zero Encoder.Encode calls and produces bit-identical
// ciphertexts to the uncached path (pinned by
// TestCompiledZeroEncodeSteadyState).
type CompiledNetwork struct{ operandTable }

// NewCompiledNetwork builds the handle for net. maxBytes is the residency
// budget: 0 keeps every operand resident (PlanCacheBytes), a negative
// value none — every use encodes — and a positive value keeps operands in
// first-consumption order while they fit. The encoder must belong to
// params — normally the serving Context's Encoder.
func NewCompiledNetwork(net *Network, params ckks.Parameters, enc *ckks.Encoder, maxBytes int64) *CompiledNetwork {
	cn := &CompiledNetwork{}
	cn.init(net.prog, params, enc, maxBytes, "hecnn_plaintext")
	return cn
}

// CompiledBatched is the steady-state handle for a batched network: the
// BatchedNetwork plus its operand table. After Warm, steady-state batched
// evaluation performs zero encoder calls (pinned by
// TestCompiledBatchedZeroEncodeSteadyState).
type CompiledBatched struct {
	operandTable
	net *BatchedNetwork
}

// NewCompiledBatched builds the batched handle; maxBytes has
// NewCompiledNetwork's meaning. The encoder must belong to params — the
// batch ring, not the LoLa ring.
func NewCompiledBatched(net *BatchedNetwork, params ckks.Parameters, enc *ckks.Encoder, maxBytes int64) *CompiledBatched {
	cb := &CompiledBatched{net: net}
	cb.init(net.prog, params, enc, maxBytes, "hecnn_batched_plaintext")
	return cb
}

// RunBatch is BatchedNetwork.RunBatch through the table's backend: the
// steady-state (zero-encode) counterpart, used by benchmarks and the
// differential harness. It evaluates untraced, so its Recorder is always
// nil; BatchedNetwork.Count folds the same program's trace.
func (cb *CompiledBatched) RunBatch(ctx *Context, images []*cnn.Tensor) ([][]float64, *Recorder, error) {
	logits, err := cb.net.runBatch(ctx, images, cb.Backend(ctx, nil))
	return logits, nil, err
}

package mlaas

// Multi-tenant serving. A server with Config.Registry set resolves each
// routed request (wire.go) to a tenantRuntime: the tenant's CKKS
// parameters, compiled network, evaluation keys, warm operand table,
// admission quota, and — when the record enables it — a private batch
// domain. Runtimes are materialized lazily from the registry record by
// Config.Models and cached keyed by the record's generation, so a key
// rotation or model update invalidates exactly one tenant's runtime and
// the next request rebuilds it; requests already evaluating on the old
// runtime finish on it. The expensive pieces (key derivation, network
// compilation, operand warm-up) run once per (tenant, generation) under
// singleflight; the tenantSet is the only cache of them, so each new
// generation builds its own hecnn.CompiledNetwork handle. Unrouted
// requests run on the server's default runtime, which newRuntime builds
// the same way.

import (
	"fmt"
	"sync"

	"fxhenn/internal/ckks"
	"fxhenn/internal/hecnn"
	"fxhenn/internal/registry"
)

// TenantModel is the serving material one registry record materializes
// to: everything a shard needs to evaluate that tenant's requests. The
// builder derives it deterministically from the record's seeds — the
// registry never holds raw key material, and a client deriving from the
// same seeds produces bit-identical keys.
type TenantModel struct {
	Params ckks.Parameters
	Net    *hecnn.Network
	Rlk    *ckks.RelinearizationKey
	Rtk    *ckks.RotationKeys
	// Batch, when non-nil, gives the tenant a private batch domain: its
	// own batch-ring instantiation and flush policy, scheduled by a
	// per-tenant batcher that shares the server's admission slots.
	Batch *BatchConfig
}

// ModelBuilder materializes a registry record into serving material.
// It runs under singleflight per (tenant, generation) and its result is
// cached until the record's generation moves.
type ModelBuilder func(rec registry.Record) (*TenantModel, error)

// tenantRuntime is one model's resident serving state: a registry
// tenant's, or the server's default when tenant is "" (Record.Validate
// refuses an empty tenant name, so the two never collide). newRuntime is
// its only constructor.
type tenantRuntime struct {
	tenant   string
	gen      uint64
	net      *hecnn.Network
	ctx      *hecnn.Context
	compiled *hecnn.CompiledNetwork
	bat      *batcher     // nil disables batched serving for this runtime
	layers   layerMetrics // nil when the server has no metrics

	// quota is the tenant's admission quota (registry Record.Quota): a
	// counting semaphore acquired after the server-wide admission slot.
	// nil leaves the tenant bounded only by the server-wide limit.
	quota chan struct{}
}

// newRuntime builds one resident runtime from its serving material —
// for the server's default model and every registry tenant alike: attach
// the shared worker pool, build the evaluator context and the per-layer
// metric handles, warm the operand table under Config.CacheBytes, and
// start the batch domain when the model has one, whose table takes the
// same budget. quota > 0 caps the runtime's concurrent requests.
//
// The evaluator holds level views of tm's keys (hecnn.Network.KeyViews):
// each key only up to the highest level the program uses it at, and no
// key it never uses. Requests enter at the top level (ValidateCiphertexts),
// so the views serve every valid request bit-identically to the full
// keys, and the full keys' other rows become garbage once the caller drops
// tm. The batch domain keeps its keys whole: its small ring makes them
// negligible.
func (s *Server) newRuntime(tenant string, gen uint64, tm *TenantModel, quota int) *tenantRuntime {
	tm.Params.AttachPool(s.pool)
	rlk, rtk := tm.Net.KeyViews(tm.Params, tm.Params.MaxLevel(), tm.Rlk, tm.Rtk)
	rt := &tenantRuntime{
		tenant: tenant,
		gen:    gen,
		net:    tm.Net,
		ctx: &hecnn.Context{
			Params:  tm.Params,
			Encoder: ckks.NewEncoder(tm.Params),
			Eval:    ckks.NewEvaluator(tm.Params, rlk, rtk),
		},
		layers: newLayerMetrics(s.cfg.Metrics, tm.Net),
	}
	if quota > 0 {
		rt.quota = make(chan struct{}, quota)
	}
	// Pre-encode the resident weight/bias plaintexts at the exact levels
	// and scales the compiled plan consumes; with the default budget that
	// is all of them, and steady-state requests perform zero
	// Encoder.Encode calls. Responses are bit-identical under any budget
	// (hecnn.TestCompiledZeroEncodeSteadyState, TestCompiledByteBudget).
	rt.compiled = hecnn.NewCompiledNetwork(tm.Net, tm.Params, rt.ctx.Encoder, s.cfg.CacheBytes)
	rt.compiled.SetMetrics(s.cfg.Metrics)
	rt.compiled.Warm(tm.Params.MaxLevel())
	if tm.Batch != nil {
		bc := tm.Batch.withDefaults()
		bc.Params.AttachPool(s.pool)
		bctx := &hecnn.Context{
			Params:  bc.Params,
			Encoder: ckks.NewEncoder(bc.Params),
			Eval:    ckks.NewEvaluator(bc.Params, bc.Rlk, bc.Rtk),
		}
		cb := hecnn.NewCompiledBatched(bc.Net, bc.Params, bctx.Encoder, s.cfg.CacheBytes)
		cb.SetMetrics(s.cfg.Metrics)
		cb.Warm(bc.Params.MaxLevel())
		rt.bat = newBatcher(bc, bctx, cb, s.adm, s.met)
		rt.bat.flight = s.cfg.Flight
		go rt.bat.run()
	}
	return rt
}

// backend returns the evaluation backend for one request on this
// runtime, over its operand table. It records no trace.
func (rt *tenantRuntime) backend() hecnn.Backend {
	return rt.compiled.Backend(rt.ctx, nil)
}

// release withdraws the runtime's operand tables from the cache gauges:
// it is no longer resident, though requests already on it finish.
func (rt *tenantRuntime) release() {
	rt.compiled.Release()
	if rt.bat != nil {
		rt.bat.cb.Release()
	}
}

// retire releases a superseded runtime and stops its private batch
// domain. It needs no other teardown — in-flight requests hold their own
// references and finish on it.
func (rt *tenantRuntime) retire() {
	rt.release()
	if rt.bat != nil {
		rt.bat.stop()
	}
}

// acquireQuota claims one tenant-quota slot, fail-fast: a tenant at its
// quota is refused StatusBusy without consuming the other tenants'
// headroom (the server-wide slot is released immediately after).
func (rt *tenantRuntime) acquireQuota() bool {
	if rt.quota == nil {
		return true
	}
	select {
	case rt.quota <- struct{}{}:
		return true
	default:
		return false
	}
}

func (rt *tenantRuntime) releaseQuota() {
	if rt.quota != nil {
		<-rt.quota
	}
}

// tenantEntry is one tenant's resident runtime slot in the tenantSet:
// built once per (tenant, generation) under its once. rt, err and retired
// are written under the tenantSet's mu.
type tenantEntry struct {
	gen     uint64
	once    sync.Once
	rt      *tenantRuntime
	err     error
	retired bool
}

// tenantSet resolves registry records to resident runtimes.
type tenantSet struct {
	reg   *registry.Registry
	build ModelBuilder
	// srv builds the runtimes (newRuntime), plugging each into the
	// server's shared pieces.
	srv *Server

	mu      sync.Mutex
	entries map[string]*tenantEntry
}

func newTenantSet(reg *registry.Registry, build ModelBuilder, srv *Server) *tenantSet {
	ts := &tenantSet{
		reg:     reg,
		build:   build,
		srv:     srv,
		entries: make(map[string]*tenantEntry),
	}
	// Eager invalidation: rotate/update/delete events drop the stale
	// runtime (and stop its batcher) immediately instead of waiting for
	// the next request's generation miss — a deleted tenant sees no next
	// request, so laziness alone would leak its runtime forever.
	reg.Subscribe(ts.notify)
	return ts
}

// runtime returns the resident runtime for rec, building it on first
// sight of the record's generation; concurrent requests for one
// generation share one build, and a failed build is retried by the next
// request. The resident generation is monotonic: a reader that looked up
// the record just before a rotate gets a one-off runtime for its keys
// without evicting the newer resident one; the one-off is never resident,
// so its tables count in no gauge.
func (ts *tenantSet) runtime(rec registry.Record) (*tenantRuntime, error) {
	ts.mu.Lock()
	e, ok := ts.entries[rec.Tenant]
	if ok && rec.Generation < e.gen {
		ts.mu.Unlock()
		rt, err := ts.materialize(rec)
		if err == nil {
			rt.release()
		}
		return rt, err
	}
	if !ok || e.gen != rec.Generation {
		e = &tenantEntry{gen: rec.Generation}
		old := ts.entries[rec.Tenant]
		ts.entries[rec.Tenant] = e
		ts.mu.Unlock()
		ts.retire(old)
	} else {
		ts.mu.Unlock()
	}

	e.once.Do(func() {
		rt, err := ts.materialize(rec)
		ts.mu.Lock()
		e.rt, e.err = rt, err
		retired := e.retired
		ts.mu.Unlock()
		if retired && rt != nil {
			rt.retire() // superseded while it was being built
		}
	})
	if e.err != nil {
		// A failed build must not wedge the generation: drop the entry (if
		// still current) so the next request retries.
		ts.mu.Lock()
		if cur, ok := ts.entries[rec.Tenant]; ok && cur == e {
			delete(ts.entries, rec.Tenant)
		}
		ts.mu.Unlock()
		return nil, e.err
	}
	return e.rt, nil
}

// materialize builds one runtime from its record: the catalog derives
// the model and keys, newRuntime does the rest.
func (ts *tenantSet) materialize(rec registry.Record) (*tenantRuntime, error) {
	tm, err := ts.build(rec)
	if err != nil {
		return nil, fmt.Errorf("materializing tenant %q generation %d: %w", rec.Tenant, rec.Generation, err)
	}
	return ts.srv.newRuntime(rec.Tenant, rec.Generation, tm, rec.Quota.MaxConcurrent), nil
}

// notify is the registry subscription: gen is the generation after the
// mutation, so any resident entry below it is stale. Deletes notify one
// past the last generation, which retires the entry the same way.
func (ts *tenantSet) notify(tenant string, gen uint64) {
	ts.mu.Lock()
	e, ok := ts.entries[tenant]
	if ok && e.gen < gen {
		delete(ts.entries, tenant)
	} else {
		e = nil
	}
	ts.mu.Unlock()
	if e != nil {
		ts.retire(e)
	}
}

// retire retires a superseded entry's runtime, or leaves that to its
// build when the build is still running.
func (ts *tenantSet) retire(e *tenantEntry) {
	if e == nil {
		return
	}
	ts.mu.Lock()
	e.retired = true
	rt := e.rt
	ts.mu.Unlock()
	if rt != nil {
		rt.retire()
	}
}

// appendResident appends every resident runtime to rts.
func (ts *tenantSet) appendResident(rts []*tenantRuntime) []*tenantRuntime {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	for _, e := range ts.entries {
		if e.rt != nil {
			rts = append(rts, e.rt)
		}
	}
	return rts
}

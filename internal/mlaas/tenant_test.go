package mlaas

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fxhenn/internal/cache"
	"fxhenn/internal/ckks"
	"fxhenn/internal/cnn"
	"fxhenn/internal/hecnn"
	"fxhenn/internal/registry"
	"fxhenn/internal/telemetry"
)

// newTenantFixture builds a multi-tenant server over an in-memory
// registry with the standard catalog, plus a dialable listener.
func newTenantFixture(t *testing.T, recs ...registry.Record) (*Server, *registry.Registry, string) {
	return newTenantFixtureWith(t, Config{}, recs...)
}

// newTenantFixtureWith is newTenantFixture with cfg's limits and
// telemetry; the registry (and the default catalog) are filled in here.
func newTenantFixtureWith(t *testing.T, cfg Config, recs ...registry.Record) (*Server, *registry.Registry, string) {
	t.Helper()
	fx := newFixture(t)
	reg := registry.New(registry.NewMemStore())
	for _, rec := range recs {
		if err := reg.Register(rec); err != nil {
			t.Fatal(err)
		}
	}
	cfg.Registry = reg
	s := NewServerWithConfig(fx.params, fx.henet, fx.rlk, fx.rtk, cfg)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l) //nolint:errcheck
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx) //nolint:errcheck
	})
	return s, reg, l.Addr().String()
}

func dialT(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	return conn
}

func tenantImage(pnet *cnn.Network, seed int64) *cnn.Tensor {
	img := cnn.NewTensor(pnet.InC, pnet.InH, pnet.InW)
	rng := rand.New(rand.NewSource(seed))
	for i := range img.Data {
		img.Data[i] = rng.Float64()
	}
	return img
}

// TestTenantRoutedInference drives two tenants with different weights
// and keys through one multi-tenant server: each must get its own
// model's logits back, and the default (unrouted) path must keep
// serving the server's own network.
func TestTenantRoutedInference(t *testing.T) {
	alice := registry.Record{Tenant: "alice", Model: "tiny", WeightSeed: 100, KeySeed: 101}
	bob := registry.Record{Tenant: "bob", Model: "tinyconv", WeightSeed: 200, KeySeed: 201}
	s, reg, addr := newTenantFixture(t, alice, bob)

	for _, rec := range []registry.Record{alice, bob} {
		got, err := reg.Lookup(rec.Tenant)
		if err != nil {
			t.Fatal(err)
		}
		client, err := StandardTenantClient(got, 7)
		if err != nil {
			t.Fatal(err)
		}
		pnet, err := StandardPlaintext(got)
		if err != nil {
			t.Fatal(err)
		}
		img := tenantImage(pnet, 3)
		want := pnet.Infer(img)

		conn := dialT(t, addr)
		logits, err := client.Infer(context.Background(), conn, img)
		conn.Close()
		if err != nil {
			t.Fatalf("tenant %s: %v", rec.Tenant, err)
		}
		for i := range want {
			if math.Abs(logits[i]-want[i]) > 1e-2 {
				t.Fatalf("tenant %s logit %d: %g vs %g", rec.Tenant, i, logits[i], want[i])
			}
		}
	}
	if s.Served() != 2 {
		t.Fatalf("served = %d, want 2", s.Served())
	}
}

// TestTenantLayerMetricsUseTenantNet: a routed request's per-layer
// metrics land under its tenant's own network label, and the default
// network's series stay at zero — every runtime owns its layer handles.
// The two tiny networks share layer names (Cnv1, Act1, …), so a lookup
// keyed by layer name alone would misfile them.
func TestTenantLayerMetricsUseTenantNet(t *testing.T) {
	bob := registry.Record{Tenant: "bob", Model: "tinyconv", WeightSeed: 200, KeySeed: 201}
	met := telemetry.NewRegistry()
	s, reg, addr := newTenantFixtureWith(t, Config{Metrics: met}, bob)
	rec, err := reg.Lookup("bob")
	if err != nil {
		t.Fatal(err)
	}
	client, err := StandardTenantClient(rec, 7)
	if err != nil {
		t.Fatal(err)
	}
	pnet, err := StandardPlaintext(rec)
	if err != nil {
		t.Fatal(err)
	}
	conn := dialT(t, addr)
	_, err = client.Infer(context.Background(), conn, tenantImage(pnet, 3))
	conn.Close()
	if err != nil {
		t.Fatal(err)
	}

	snap := met.Snapshot()
	if err := CheckAccounting(snap, map[string]int{"bob": 1}, s); err != nil {
		t.Fatal(err)
	}
	layerCount := func(net, layer string) int64 {
		m := snap.Family(MetricLayerSeconds).Metric(telemetry.L("net", net), telemetry.L("layer", layer))
		if m == nil {
			return -1
		}
		return m.Count
	}
	for _, l := range pnet.Layers {
		if got := layerCount(pnet.Name, l.Name()); got != 1 {
			t.Errorf("%s{net=%q,layer=%q} count = %d, want 1", MetricLayerSeconds, pnet.Name, l.Name(), got)
		}
	}
	def := s.def.net
	for _, l := range def.Layers {
		if got := layerCount(def.Name, l.Name()); got != 0 {
			t.Errorf("%s{net=%q,layer=%q} count = %d after zero unrouted requests, want 0", MetricLayerSeconds, def.Name, l.Name(), got)
		}
	}
}

// TestTenantUnknownAndGenerationMismatch pins the typed refusals: a
// tenant missing from the registry is StatusUnknownTenant (terminal for
// retries), and a client pinned to a rotated-away generation is refused
// instead of served undecryptable logits.
func TestTenantUnknownAndGenerationMismatch(t *testing.T) {
	alice := registry.Record{Tenant: "alice", Model: "tiny", WeightSeed: 100, KeySeed: 101}
	_, reg, addr := newTenantFixture(t, alice)

	rec, err := reg.Lookup("alice")
	if err != nil {
		t.Fatal(err)
	}
	client, err := StandardTenantClient(rec, 7)
	if err != nil {
		t.Fatal(err)
	}
	pnet, _ := StandardPlaintext(rec)
	img := tenantImage(pnet, 3)

	// Unknown tenant: typed status, and terminal for retries.
	client.Tenant = "mallory"
	conn := dialT(t, addr)
	_, err = client.Infer(context.Background(), conn, img)
	conn.Close()
	var se *StatusError
	if !errors.As(err, &se) || se.Code != StatusUnknownTenant {
		t.Fatalf("unknown tenant: %v, want StatusUnknownTenant", err)
	}
	if Retryable(err) {
		t.Fatal("StatusUnknownTenant must be terminal for retries")
	}

	// Rotate alice's keys; the old-generation client must be refused.
	if _, err := reg.Rotate("alice", 999); err != nil {
		t.Fatal(err)
	}
	client.Tenant = "alice"
	conn = dialT(t, addr)
	_, err = client.Infer(context.Background(), conn, img)
	conn.Close()
	if !errors.As(err, &se) || se.Code != StatusBadRequest {
		t.Fatalf("stale generation: %v, want StatusBadRequest", err)
	}

	// A client re-derived from the rotated record works again.
	rec, err = reg.Lookup("alice")
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := StandardTenantClient(rec, 7)
	if err != nil {
		t.Fatal(err)
	}
	want := pnet.Infer(img)
	conn = dialT(t, addr)
	logits, err := fresh.Infer(context.Background(), conn, img)
	conn.Close()
	if err != nil {
		t.Fatalf("post-rotate inference: %v", err)
	}
	for i := range want {
		if math.Abs(logits[i]-want[i]) > 1e-2 {
			t.Fatalf("post-rotate logit %d: %g vs %g", i, logits[i], want[i])
		}
	}
}

// TestTenantQuota pins the per-tenant admission quota: with alice capped
// at 1 concurrent evaluation, a second simultaneous request is refused
// StatusBusy while bob (uncapped) is untouched — tenant saturation never
// consumes another tenant's headroom.
func TestTenantQuota(t *testing.T) {
	alice := registry.Record{Tenant: "alice", Model: "tiny", WeightSeed: 100, KeySeed: 101,
		Quota: registry.Quota{MaxConcurrent: 1}}
	bob := registry.Record{Tenant: "bob", Model: "tiny", WeightSeed: 100, KeySeed: 301}
	s, reg, addr := newTenantFixture(t, alice, bob)

	// Stall evaluation so concurrent requests overlap deterministically.
	gate := make(chan struct{})
	var once sync.Once
	s.testEvalHook = func() { <-gate }
	release := func() { once.Do(func() { close(gate) }) }
	defer release()

	arec, _ := reg.Lookup("alice")
	brec, _ := reg.Lookup("bob")
	pnet, _ := StandardPlaintext(arec)
	img := tenantImage(pnet, 3)

	first, err := StandardTenantClient(arec, 7)
	if err != nil {
		t.Fatal(err)
	}
	firstDone := make(chan error, 1)
	firstConn := dialT(t, addr)
	defer firstConn.Close()
	go func() {
		_, err := first.Infer(context.Background(), firstConn, img)
		firstDone <- err
	}()

	// Wait until the first request actually holds alice's only quota slot
	// (inflight counts requests before they reach the quota gate, so poll
	// the slot itself).
	waitQuotaHeld(t, s, "alice", 1)

	second, err := StandardTenantClient(arec, 8)
	if err != nil {
		t.Fatal(err)
	}
	conn := dialT(t, addr)
	_, err = second.Infer(context.Background(), conn, img)
	conn.Close()
	var se *StatusError
	if !errors.As(err, &se) || se.Code != StatusBusy {
		t.Fatalf("quota overflow: %v, want StatusBusy", err)
	}

	// Bob is unaffected by alice's saturation — but his request would park
	// in the same eval hook, so release the gate first and let both finish.
	release()
	if err := <-firstDone; err != nil {
		t.Fatalf("first alice request: %v", err)
	}
	bclient, err := StandardTenantClient(brec, 9)
	if err != nil {
		t.Fatal(err)
	}
	conn = dialT(t, addr)
	_, err = bclient.Infer(context.Background(), conn, img)
	conn.Close()
	if err != nil {
		t.Fatalf("bob during alice saturation: %v", err)
	}
}

// waitQuotaHeld spins until n of the tenant's quota slots are occupied.
func waitQuotaHeld(t *testing.T, s *Server, tenant string, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		s.tenants.mu.Lock()
		entry, ok := s.tenants.entries[tenant]
		s.tenants.mu.Unlock()
		if ok {
			// entry.rt is published by entry.once; joining the Once gives the
			// happens-before edge this read needs.
			entry.once.Do(func() {})
			if entry.rt != nil && entry.rt.quota != nil && len(entry.rt.quota) >= n {
				return
			}
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %d held quota slots of %q", n, tenant)
}

// TestTenantRuntimeInvalidatedOnRotate pins the eager-invalidation path:
// after a rotate, the tenant set's resident runtime is gone before any
// new request arrives (the registry subscription, not the lazy lookup,
// dropped it).
func TestTenantRuntimeInvalidatedOnRotate(t *testing.T) {
	alice := registry.Record{Tenant: "alice", Model: "tiny", WeightSeed: 100, KeySeed: 101}
	s, reg, addr := newTenantFixture(t, alice)

	rec, _ := reg.Lookup("alice")
	client, err := StandardTenantClient(rec, 7)
	if err != nil {
		t.Fatal(err)
	}
	pnet, _ := StandardPlaintext(rec)
	img := tenantImage(pnet, 3)
	conn := dialT(t, addr)
	if _, err := client.Infer(context.Background(), conn, img); err != nil {
		t.Fatal(err)
	}
	conn.Close()

	s.tenants.mu.Lock()
	_, resident := s.tenants.entries["alice"]
	s.tenants.mu.Unlock()
	if !resident {
		t.Fatal("runtime not resident after a served request")
	}
	if _, err := reg.Rotate("alice", 999); err != nil {
		t.Fatal(err)
	}
	s.tenants.mu.Lock()
	_, resident = s.tenants.entries["alice"]
	s.tenants.mu.Unlock()
	if resident {
		t.Fatal("rotate left the stale runtime resident")
	}
}

// TestTenantSetBuildsOncePerGeneration pins the build discipline of the
// tenant set — the only cache of tenant runtimes and the compiled networks
// inside them — with a counting ModelBuilder.
func TestTenantSetBuildsOncePerGeneration(t *testing.T) {
	alice := func(gen uint64) registry.Record {
		return registry.Record{Tenant: "alice", Model: "tiny", WeightSeed: 100, KeySeed: 101, Generation: gen}
	}
	for _, tc := range []struct {
		name string
		// failures is how many builds fail before the builder recovers.
		failures   int64
		run        func(t *testing.T, ts *tenantSet)
		wantBuilds int64
	}{
		{name: "generation keyed", wantBuilds: 2, run: func(t *testing.T, ts *tenantSet) {
			g1 := mustRuntime(t, ts, alice(1))
			if again := mustRuntime(t, ts, alice(1)); again != g1 {
				t.Fatal("same generation returned a different runtime")
			}
			g2 := mustRuntime(t, ts, alice(2))
			if g2 == g1 || g2.compiled == g1.compiled {
				t.Fatal("generation bump reused the stale runtime or compiled network")
			}
		}},
		{name: "one build under concurrent requests", wantBuilds: 1, run: func(t *testing.T, ts *tenantSet) {
			const workers = 16
			got := make([]*tenantRuntime, workers)
			var wg sync.WaitGroup
			for w := range got {
				wg.Add(1)
				go func() {
					defer wg.Done()
					got[w], _ = ts.runtime(alice(1))
				}()
			}
			wg.Wait()
			for w := range got {
				if got[w] == nil || got[w] != got[0] {
					t.Fatalf("worker %d got runtime %p, worker 0 %p", w, got[w], got[0])
				}
			}
		}},
		{name: "failed build is retried", failures: 1, wantBuilds: 2, run: func(t *testing.T, ts *tenantSet) {
			if _, err := ts.runtime(alice(1)); err == nil {
				t.Fatal("failed build returned no error")
			}
			if _, resident := ts.entries["alice"]; resident {
				t.Fatal("failed build left a resident entry")
			}
			mustRuntime(t, ts, alice(1))
		}},
		{name: "stale reader gets a one-off runtime", wantBuilds: 2, run: func(t *testing.T, ts *tenantSet) {
			resident := mustRuntime(t, ts, alice(2))
			if stale := mustRuntime(t, ts, alice(1)); stale == resident || stale.gen != 1 {
				t.Fatalf("stale reader got generation %d runtime %p, resident %p", stale.gen, stale, resident)
			}
			if again := mustRuntime(t, ts, alice(2)); again != resident {
				t.Fatal("stale reader evicted the resident runtime")
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var builds atomic.Int64
			count := func(rec registry.Record) (*TenantModel, error) {
				if builds.Add(1) <= tc.failures {
					return nil, errors.New("keygen exploded")
				}
				return StandardCatalog()(rec)
			}
			fx := newFixture(t)
			s := NewServerWithConfig(fx.params, fx.henet, fx.rlk, fx.rtk, Config{
				Registry: registry.New(registry.NewMemStore()),
				Models:   count,
			})
			t.Cleanup(func() { s.Shutdown(context.Background()) }) //nolint:errcheck
			tc.run(t, s.tenants)
			if got := builds.Load(); got != tc.wantBuilds {
				t.Fatalf("%d builds, want %d", got, tc.wantBuilds)
			}
		})
	}
}

// TestTenantCacheBytesGauge: runtimes sharing a registry sum their
// resident operand bytes on cache_bytes{cache="hecnn_plaintext"} rather
// than overwrite each other, and a runtime the tenant set drops — rotated
// away, or a one-off built for a stale generation — leaves no bytes
// behind. At each step the gauge equals the sum of PlanCacheBytes over
// the live runtimes: the server's default one and each resident tenant's.
func TestTenantCacheBytesGauge(t *testing.T) {
	alice := registry.Record{Tenant: "alice", Model: "tiny", WeightSeed: 100, KeySeed: 101}
	bob := registry.Record{Tenant: "bob", Model: "tinyconv", WeightSeed: 200, KeySeed: 201}
	met := telemetry.NewRegistry()
	s, reg, _ := newTenantFixtureWith(t, Config{Metrics: met}, alice, bob)
	plan := func(rt *tenantRuntime) float64 {
		return float64(hecnn.PlanCacheBytes(rt.net, rt.ctx.Params, rt.ctx.Params.MaxLevel()))
	}
	check := func(step string, live ...*tenantRuntime) {
		t.Helper()
		want := plan(s.def)
		for _, rt := range live {
			want += plan(rt)
		}
		m := met.Snapshot().Family(cache.MetricBytes).Metric(telemetry.L("cache", "hecnn_plaintext"))
		if m == nil || m.Value != want {
			t.Fatalf("%s: cache_bytes %v, want %v", step, m, want)
		}
	}
	lookup := func(tenant string) registry.Record {
		rec, err := reg.Lookup(tenant)
		if err != nil {
			t.Fatal(err)
		}
		return rec
	}

	check("default runtime only")
	a1 := mustRuntime(t, s.tenants, lookup("alice"))
	b := mustRuntime(t, s.tenants, lookup("bob"))
	check("two tenants resident", a1, b)
	if plan(a1) == plan(b) {
		t.Fatal("both tenants plan the same bytes: the sum cannot tell them apart")
	}
	stale := lookup("alice")
	if _, err := reg.Rotate("alice", 102); err != nil {
		t.Fatal(err)
	}
	check("alice rotated away", b)
	a2 := mustRuntime(t, s.tenants, lookup("alice"))
	check("alice rebuilt", a2, b)
	if oneOff := mustRuntime(t, s.tenants, stale); oneOff == a2 {
		t.Fatal("stale generation served by the resident runtime")
	}
	check("after a stale one-off", a2, b)
}

func mustRuntime(t *testing.T, ts *tenantSet, rec registry.Record) *tenantRuntime {
	t.Helper()
	rt, err := ts.runtime(rec)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// TestTenantKeyViews: a runtime evaluates with level views of the keys its
// builder supplies (hecnn.Network.KeyViews). A key set padded with keys
// the program never uses still serves the catalog's exact response, and a
// key shorter than the level the program uses it at fails the request by
// name as StatusInternal, not with an index panic.
func TestTenantKeyViews(t *testing.T) {
	padded := registry.Record{Tenant: "padded", Model: "tiny", WeightSeed: 100, KeySeed: 101}
	short := registry.Record{Tenant: "short", Model: "tiny", WeightSeed: 100, KeySeed: 101}
	plain := registry.Record{Tenant: "plain", Model: "tiny", WeightSeed: 100, KeySeed: 101}
	build := func(rec registry.Record) (*TenantModel, error) {
		tm, err := StandardCatalog()(rec)
		if err != nil {
			return nil, err
		}
		switch rec.Tenant {
		case "padded":
			// Keys under elements no rotation maps to: never read.
			swk, n := tm.Rtk.Keys[tm.Params.GaloisElementForRotation(1)], len(tm.Rtk.Keys)
			for k := 3; k < 9; k += 2 {
				if g := tm.Params.GaloisElementForRotation(-k); tm.Rtk.Keys[g] == nil {
					tm.Rtk.Keys[g] = swk
				}
			}
			if swk == nil || len(tm.Rtk.Keys) == n {
				return nil, errors.New("no key padded")
			}
		case "short":
			tm.Rlk = &ckks.RelinearizationKey{SwitchingKey: *tm.Rlk.AtLevel(2)}
		}
		return tm, nil
	}
	_, reg, addr := newTenantFixtureWith(t, Config{Models: build}, padded, short, plain)

	infer := func(rec registry.Record) (string, error) {
		t.Helper()
		got, err := reg.Lookup(rec.Tenant)
		if err != nil {
			t.Fatal(err)
		}
		client, err := StandardTenantClient(got, 7)
		if err != nil {
			t.Fatal(err)
		}
		pnet, err := StandardPlaintext(got)
		if err != nil {
			t.Fatal(err)
		}
		conn := dialT(t, addr)
		defer conn.Close()
		trw := newTimedRW(conn, client.Timeout, time.Time{})
		h := client.header(nil)
		if _, err := writeRequest(trw, h, client.encryptRequest(tenantImage(pnet, 3))); err != nil {
			t.Fatal(err)
		}
		out, _, err := readResponse(trw, client.params, h)
		if err != nil {
			return "", err
		}
		return ctDigest(out), nil
	}
	want, err := infer(plain)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := infer(padded); err != nil || got != want {
		t.Fatalf("padded key set: digest %s err %v, want %s", got, err, want)
	}
	_, err = infer(short)
	var se *StatusError
	if !errors.As(err, &se) || se.Code != StatusInternal ||
		!strings.Contains(se.Msg, "switching key holds levels ≤ 2, operand at level 6") {
		t.Fatalf("short relinearization key: err = %v, want StatusInternal naming both levels", err)
	}
}

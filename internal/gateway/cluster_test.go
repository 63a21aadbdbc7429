package gateway

// The differential cluster test harness — the proof behind the sharded
// fleet: a gateway fronting two in-process evaluator shards must be
// byte-for-byte indistinguishable from one standalone server. Clients
// with identical encryption seeds fire identical request bytes down both
// paths and the harness compares SHA-256 digests of the raw response
// streams across both compile modes (ladder, BSGS) and the legacy
// untenanted framing. The caching and tracing dimensions are
// crossed in by construction: the reference server runs untraced with
// the plaintext cache disabled while every shard serves traced from
// warmed caches, so a single digest match simultaneously proves
// cluster==single, cached==uncached and traced==untraced.
//
// The chaos suite drives the failure paths deterministically: a killed
// shard trips its breaker and the tenant re-routes to the next shard in
// ring order; a registry miss surfaces as the typed unknown-tenant status
// through the splice; a faultnet-injected drop on the gateway→shard link
// tears the response visibly instead of hanging, and counts against the
// shard. The replica fault schedules live in chaos_test.go.
// The mixed-tenant hammer (scaled by FXHENN_HAMMER_ITERS, run under
// -race in nightly) keeps all of it honest under concurrency.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"fxhenn/internal/ckks"
	"fxhenn/internal/cnn"
	"fxhenn/internal/faultnet"
	"fxhenn/internal/hecnn"
	"fxhenn/internal/mlaas"
	"fxhenn/internal/registry"
	"fxhenn/internal/telemetry"
)

// baseCeremony is the shards' default runtime material (the
// legacy/untenanted path); every member of the fleet shares it so the
// default path is differential-testable too.
type baseCeremony struct {
	params ckks.Parameters
	pnet   *cnn.Network
	henet  *hecnn.Network
	pk     *ckks.PublicKey
	sk     *ckks.SecretKey
	rlk    *ckks.RelinearizationKey
	rtk    *ckks.RotationKeys
}

func newBaseCeremony() *baseCeremony {
	params := ckks.NewParameters(8, 30, 7, 45)
	pnet := cnn.NewTinyNet()
	pnet.InitWeights(21)
	henet := hecnn.Compile(pnet, params.Slots())
	kg := ckks.NewKeyGenerator(params, 31)
	sk := kg.GenSecretKey()
	return &baseCeremony{
		params: params,
		pnet:   pnet,
		henet:  henet,
		pk:     kg.GenPublicKey(sk),
		sk:     sk,
		rlk:    kg.GenRelinearizationKey(sk),
		rtk:    kg.GenRotationKeys(sk, henet.RotationsNeeded(params.MaxLevel())),
	}
}

type clusterShard struct {
	name string
	srv  *mlaas.Server
	l    net.Listener
}

// cluster is the in-process fleet: a shared registry, n evaluator
// shards sharing one metrics registry, and a gateway listening on TCP.
type cluster struct {
	reg    *registry.Registry
	met    *telemetry.Registry
	shards []*clusterShard
	gw     *Gateway
	gwl    net.Listener
}

// startShard starts one evaluator shard; met (nil for none) receives its
// telemetry.
func startShard(t *testing.T, name string, reg *registry.Registry, base *baseCeremony, cacheBytes int64, met *telemetry.Registry) *clusterShard {
	t.Helper()
	return startShardWith(t, name, base, mlaas.Config{Registry: reg, CacheBytes: cacheBytes, Metrics: met})
}

// startShardWith starts one evaluator shard under cfg.
func startShardWith(t *testing.T, name string, base *baseCeremony, cfg mlaas.Config) *clusterShard {
	t.Helper()
	srv := mlaas.NewServerWithConfig(base.params, base.henet, base.rlk, base.rtk, cfg)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l) //nolint:errcheck
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx) //nolint:errcheck
	})
	return &clusterShard{name: name, srv: srv, l: l}
}

func newCluster(t *testing.T, nShards int, base *baseCeremony, recs ...registry.Record) *cluster {
	t.Helper()
	reg := registry.New(registry.NewMemStore())
	for _, rec := range recs {
		if err := reg.Register(rec); err != nil {
			t.Fatal(err)
		}
	}
	c := &cluster{reg: reg, met: telemetry.NewRegistry()}
	shards := make([]Shard, 0, nShards)
	for i := 0; i < nShards; i++ {
		sh := startShard(t, fmt.Sprintf("shard-%d", i), reg, base, 0, c.met)
		c.shards = append(c.shards, sh)
		addr := sh.l.Addr().String()
		shards = append(shards, Shard{Name: sh.name, Addr: addr})
	}
	c.gw = New(Config{BreakerThreshold: 1, BreakerCooldown: 50 * time.Millisecond}, shards...)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c.gwl = l
	go c.gw.Serve(l) //nolint:errcheck
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		c.gw.Shutdown(ctx) //nolint:errcheck
	})
	return c
}

func (c *cluster) addr() string { return c.gwl.Addr().String() }

// servers returns the shards' servers, for the accounting check.
func (c *cluster) servers() []*mlaas.Server {
	out := make([]*mlaas.Server, len(c.shards))
	for i, sh := range c.shards {
		out[i] = sh.srv
	}
	return out
}

// recordConn hashes the raw bytes of one exchange: everything written
// (the request) and everything read (the response).
type recordConn struct {
	net.Conn
	reqB []byte
	resB []byte
}

func (rc *recordConn) Write(p []byte) (int, error) {
	n, err := rc.Conn.Write(p)
	rc.reqB = append(rc.reqB, p[:n]...)
	return n, err
}

func (rc *recordConn) Read(p []byte) (int, error) {
	n, err := rc.Conn.Read(p)
	rc.resB = append(rc.resB, p[:n]...)
	return n, err
}

func (rc *recordConn) digests() (req, res string) {
	rq := sha256.Sum256(rc.reqB)
	rs := sha256.Sum256(rc.resB)
	return hex.EncodeToString(rq[:]), hex.EncodeToString(rs[:])
}

// digestInfer runs one inference against addr and returns the logits
// plus the request/response digests.
func digestInfer(t *testing.T, cl *mlaas.Client, addr string, img *cnn.Tensor) ([]float64, string, string) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	rc := &recordConn{Conn: conn}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	logits, err := cl.Infer(ctx, rc, img)
	conn.Close()
	if err != nil {
		t.Fatalf("inference against %s: %v", addr, err)
	}
	req, res := rc.digests()
	return logits, req, res
}

func clusterImage(pnet *cnn.Network, seed int64) *cnn.Tensor {
	img := cnn.NewTensor(pnet.InC, pnet.InH, pnet.InW)
	v := seed
	for i := range img.Data {
		// Tiny deterministic LCG keeps the harness free of shared rand state.
		v = v*6364136223846793005 + 1442695040888963407
		img.Data[i] = float64(uint64(v)>>11) / float64(1<<53)
	}
	return img
}

// clusterModes is the differential matrix: every compile mode the
// serving stack supports, plus the legacy untenanted framing.
var clusterModes = []struct {
	name string
	rec  registry.Record // zero Tenant = legacy untenanted path
}{
	{"ladder", registry.Record{Tenant: "t-ladder", Model: "tiny", WeightSeed: 100, KeySeed: 101}},
	{"bsgs", registry.Record{Tenant: "t-bsgs", Model: "tinyconv", WeightSeed: 120, KeySeed: 121, BSGS: true}},
	{"legacy", registry.Record{}},
}

func clusterRecords() []registry.Record {
	recs := make([]registry.Record, 0, len(clusterModes))
	for _, m := range clusterModes {
		if m.rec.Tenant != "" {
			recs = append(recs, m.rec)
		}
	}
	return recs
}

// TestClusterDifferential is the headline proof: for every mode, the
// same request bytes produce bit-identical response bytes from the
// 2-shard gateway fleet and from a standalone reference server — which
// additionally runs uncached, so the digests also pin cached==uncached.
// Two rounds per mode cover cold and steady-state (warm cache) serving.
func TestClusterDifferential(t *testing.T) {
	base := newBaseCeremony()
	recs := clusterRecords()
	c := newCluster(t, 2, base, recs...)

	// The reference path: one standalone server over the same registry,
	// plaintext caches disabled.
	ref := startShard(t, "reference", c.reg, base, -1, nil)
	refAddr := ref.l.Addr().String()

	for _, mode := range clusterModes {
		t.Run(mode.name, func(t *testing.T) {
			newClient := func(encSeed int64) (*mlaas.Client, *cnn.Network) {
				if mode.rec.Tenant == "" {
					cl := mlaas.NewClient(base.params, base.henet, base.pk, base.sk, encSeed)
					return cl, base.pnet
				}
				rec, err := c.reg.Lookup(mode.rec.Tenant)
				if err != nil {
					t.Fatal(err)
				}
				pnet, err := mlaas.StandardPlaintext(rec)
				if err != nil {
					t.Fatal(err)
				}
				cl, err := mlaas.StandardTenantClient(rec, encSeed)
				if err != nil {
					t.Fatal(err)
				}
				return cl, pnet
			}

			for round := 0; round < 2; round++ {
				encSeed := int64(7 + round)
				refClient, pnet := newClient(encSeed)
				gwClient, _ := newClient(encSeed)
				img := clusterImage(pnet, int64(3+round))
				want := pnet.Infer(img)

				wantLogits, reqRef, resRef := digestInfer(t, refClient, refAddr, img)
				gotLogits, reqGW, resGW := digestInfer(t, gwClient, c.addr(), img)

				if reqRef != reqGW {
					t.Fatalf("round %d: request bytes diverged — the clients are not deterministic twins", round)
				}
				if resRef != resGW {
					t.Fatalf("round %d: response digest %s via gateway, %s via reference server", round, resGW, resRef)
				}
				for i := range want {
					if math.Abs(gotLogits[i]-want[i]) > 1e-2 {
						t.Fatalf("round %d logit %d: %g vs plaintext %g", round, i, gotLogits[i], want[i])
					}
					if gotLogits[i] != wantLogits[i] {
						t.Fatalf("round %d logit %d: decrypted values diverged across paths", round, i)
					}
				}
			}
		})
	}

	// The fleet counted every exchange it served exactly once: two rounds
	// per tenant mode, and the legacy rounds as the unrouted remainder.
	routed := map[string]int{}
	for _, rec := range recs {
		routed[rec.Tenant] = 2
	}
	if err := mlaas.CheckAccounting(c.met.Snapshot(), routed, c.servers()...); err != nil {
		t.Fatal(err)
	}
}

// servedCounts snapshots each shard's served counter, so tests can
// attribute a request to the shard whose counter moved.
func servedCounts(c *cluster) []int {
	out := make([]int, len(c.shards))
	for i, sh := range c.shards {
		out[i] = sh.srv.Served()
	}
	return out
}

// servedBy returns the one shard whose served counter moved between the
// two servedCounts snapshots, failing the test by name when none or more
// than one did.
func servedBy(t *testing.T, c *cluster, before, after []int) int {
	t.Helper()
	shard := -1
	for i := range c.shards {
		if after[i] == before[i] {
			continue
		}
		if shard >= 0 {
			t.Fatalf("one request served by two shards: served counts %v → %v", before, after)
		}
		shard = i
	}
	if shard < 0 {
		t.Fatalf("request served by no shard: served counts %v → %v", before, after)
	}
	return shard
}

// TestClusterPlacement: a tenant's requests consistently land on one
// home shard (warm state stays warm), and the fleet as a whole serves
// every tenant.
func TestClusterPlacement(t *testing.T) {
	base := newBaseCeremony()
	recs := clusterRecords()
	c := newCluster(t, 2, base, recs...)

	for _, rec := range recs {
		got, err := c.reg.Lookup(rec.Tenant)
		if err != nil {
			t.Fatal(err)
		}
		pnet, _ := mlaas.StandardPlaintext(got)
		img := clusterImage(pnet, 5)
		var home int = -1
		for round := 0; round < 3; round++ {
			cl, err := mlaas.StandardTenantClient(got, int64(20+round))
			if err != nil {
				t.Fatal(err)
			}
			before := servedCounts(c)
			digestInfer(t, cl, c.addr(), img)
			shard := servedBy(t, c, before, servedCounts(c))
			if home < 0 {
				home = shard
			} else if shard != home {
				t.Fatalf("tenant %s moved shard %d → %d with a stable fleet", rec.Tenant, home, shard)
			}
		}
	}
}

// TestClusterShardKillReroute is the chaos headline: kill a tenant's
// home shard, watch the gateway's dial fail, the breaker trip, and the
// request re-route to the surviving shard — correctly, because the
// survivor derives the same keys from the same registry record.
func TestClusterShardKillReroute(t *testing.T) {
	base := newBaseCeremony()
	rec := registry.Record{Tenant: "t-ladder", Model: "tiny", WeightSeed: 100, KeySeed: 101}
	c := newCluster(t, 2, base, rec)

	got, err := c.reg.Lookup(rec.Tenant)
	if err != nil {
		t.Fatal(err)
	}
	pnet, _ := mlaas.StandardPlaintext(got)
	img := clusterImage(pnet, 5)
	want := pnet.Infer(img)

	// Find the home shard.
	cl, err := mlaas.StandardTenantClient(got, 7)
	if err != nil {
		t.Fatal(err)
	}
	before := servedCounts(c)
	digestInfer(t, cl, c.addr(), img)
	home := servedBy(t, c, before, servedCounts(c))

	// Kill it: listener down, server drained. Dials now fail outright.
	c.shards[home].l.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	c.shards[home].srv.Shutdown(ctx) //nolint:errcheck
	cancel()

	// The next request must re-route and still decrypt correctly.
	cl2, err := mlaas.StandardTenantClient(got, 8)
	if err != nil {
		t.Fatal(err)
	}
	logits, _, _ := digestInfer(t, cl2, c.addr(), img)
	for i := range want {
		if math.Abs(logits[i]-want[i]) > 1e-2 {
			t.Fatalf("re-routed logit %d: %g vs %g", i, logits[i], want[i])
		}
	}
	if st := c.gw.breakerState(c.shards[home].name); st != "open" && st != "half-open" {
		t.Fatalf("home shard breaker %s after a failed dial (threshold 1)", st)
	}
	if c.shards[1-home].srv.Served() == 0 {
		t.Fatal("surviving shard served nothing after the kill")
	}
}

// TestClusterRollingDrain: RemoveShard takes a shard off the ring and
// waits for its in-flight splices; the tenant then re-homes to the
// survivor without errors.
func TestClusterRollingDrain(t *testing.T) {
	base := newBaseCeremony()
	rec := registry.Record{Tenant: "t-ladder", Model: "tiny", WeightSeed: 100, KeySeed: 101}
	c := newCluster(t, 2, base, rec)

	got, err := c.reg.Lookup(rec.Tenant)
	if err != nil {
		t.Fatal(err)
	}
	pnet, _ := mlaas.StandardPlaintext(got)
	img := clusterImage(pnet, 5)

	cl, err := mlaas.StandardTenantClient(got, 7)
	if err != nil {
		t.Fatal(err)
	}
	before := servedCounts(c)
	digestInfer(t, cl, c.addr(), img)
	after := servedCounts(c)
	home := servedBy(t, c, before, after)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.gw.RemoveShard(ctx, c.shards[home].name); err != nil {
		t.Fatalf("rolling drain: %v", err)
	}
	if n := len(c.gw.Shards()); n != 1 {
		t.Fatalf("fleet size %d after drain, want 1", n)
	}

	cl2, err := mlaas.StandardTenantClient(got, 8)
	if err != nil {
		t.Fatal(err)
	}
	want := pnet.Infer(img)
	logits, _, _ := digestInfer(t, cl2, c.addr(), img)
	for i := range want {
		if math.Abs(logits[i]-want[i]) > 1e-2 {
			t.Fatalf("post-drain logit %d: %g vs %g", i, logits[i], want[i])
		}
	}
	if c.shards[home].srv.Served() != after[home] {
		t.Fatal("drained shard served a request after leaving the ring")
	}
}

// TestClusterUnknownTenantThroughGateway: a registry miss on the shard
// surfaces through the splice as the typed unknown-tenant status — the
// gateway proxies the refusal rather than masking it.
func TestClusterUnknownTenantThroughGateway(t *testing.T) {
	base := newBaseCeremony()
	rec := registry.Record{Tenant: "t-ladder", Model: "tiny", WeightSeed: 100, KeySeed: 101}
	c := newCluster(t, 2, base, rec)

	got, err := c.reg.Lookup(rec.Tenant)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := mlaas.StandardTenantClient(got, 7)
	if err != nil {
		t.Fatal(err)
	}
	cl.Tenant = "ghost"
	pnet, _ := mlaas.StandardPlaintext(got)
	conn, err := net.Dial("tcp", c.addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	_, err = cl.Infer(ctx, conn, clusterImage(pnet, 5))
	var se *mlaas.StatusError
	if !errors.As(err, &se) || se.Code != mlaas.StatusUnknownTenant {
		t.Fatalf("ghost tenant through gateway: %v, want StatusUnknownTenant", err)
	}
}

// TestClusterFaultnetDropMidResponse: a gateway→shard link that dies
// mid-response must tear the client's exchange visibly (transport error
// or short response), never hang or deliver silently truncated logits —
// and the torn exchange counts against the shard's breaker even though
// its dial succeeded.
func TestClusterFaultnetDropMidResponse(t *testing.T) {
	base := newBaseCeremony()
	rec := registry.Record{Tenant: "t-ladder", Model: "tiny", WeightSeed: 100, KeySeed: 101}
	reg := registry.New(registry.NewMemStore())
	if err := reg.Register(rec); err != nil {
		t.Fatal(err)
	}
	sh := startShard(t, "shard-0", reg, base, 0, nil)
	shardAddr := sh.l.Addr().String()

	// The gateway's upstream link drops after 64 response bytes.
	gw := New(Config{BreakerThreshold: 1}, Shard{
		Name: "shard-0",
		Dial: func(ctx context.Context) (net.Conn, error) {
			var d net.Dialer
			conn, err := d.DialContext(ctx, "tcp", shardAddr)
			if err != nil {
				return nil, err
			}
			return faultnet.New(conn, faultnet.Config{DropAfterReads: 64}), nil
		},
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go gw.Serve(l) //nolint:errcheck
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		gw.Shutdown(ctx) //nolint:errcheck
	})

	got, err := reg.Lookup(rec.Tenant)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := mlaas.StandardTenantClient(got, 7)
	if err != nil {
		t.Fatal(err)
	}
	pnet, _ := mlaas.StandardPlaintext(got)
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err = cl.Infer(ctx, conn, clusterImage(pnet, 5)); err == nil {
		t.Fatal("dropped upstream link produced a successful inference")
	}
	if st := gw.breakerState("shard-0"); st != "open" {
		t.Fatalf("shard breaker %s after a torn exchange at threshold 1, want open", st)
	}
}

// hammerIters returns the per-worker iteration count: small in tier-1,
// scaled up by FXHENN_HAMMER_ITERS in nightly runs.
func hammerIters() int {
	if v := os.Getenv("FXHENN_HAMMER_ITERS"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return 2
}

// TestClusterMixedTenantHammer drives every tenant concurrently through
// the gateway with staggered deadlines — the -race workout for the whole
// stack: routing, per-tenant runtimes, quotas, breakers, splicing. Busy
// refusals and self-inflicted deadline expiries are legal; wrong logits,
// unexpected statuses, or a hang are not, and every tenant must land at
// least one success.
func TestClusterMixedTenantHammer(t *testing.T) {
	base := newBaseCeremony()
	recs := []registry.Record{
		{Tenant: "t-ladder", Model: "tiny", WeightSeed: 100, KeySeed: 101},
		{Tenant: "t-bsgs", Model: "tiny", WeightSeed: 110, KeySeed: 111, BSGS: true},
		{Tenant: "t-quota", Model: "tiny", WeightSeed: 140, KeySeed: 141,
			Quota: registry.Quota{MaxConcurrent: 1}},
	}
	c := newCluster(t, 2, base, recs...)
	iters := hammerIters()

	const workersPerTenant = 2
	var wg sync.WaitGroup
	successes := make([]int, len(recs))
	var smu sync.Mutex
	errc := make(chan error, len(recs)*workersPerTenant*iters)

	for ti, rec := range recs {
		got, err := c.reg.Lookup(rec.Tenant)
		if err != nil {
			t.Fatal(err)
		}
		pnet, _ := mlaas.StandardPlaintext(got)
		for w := 0; w < workersPerTenant; w++ {
			wg.Add(1)
			go func(ti, w int, rec registry.Record) {
				defer wg.Done()
				cl, err := mlaas.StandardTenantClient(rec, int64(1000+ti*10+w))
				if err != nil {
					errc <- err
					return
				}
				for it := 0; it < iters; it++ {
					img := clusterImage(pnet, int64(ti*100+w*10+it))
					want := pnet.Infer(img)
					// Staggered deadlines: every worker runs on a different
					// budget, so slow evaluations overlap fast ones and some
					// requests race their own deadline.
					budget := time.Duration(10+ti*7+w*3) * time.Second
					ctx, cancel := context.WithTimeout(context.Background(), budget)
					conn, err := net.Dial("tcp", c.addr())
					if err != nil {
						cancel()
						errc <- err
						return
					}
					logits, err := cl.Infer(ctx, conn, img)
					conn.Close()
					cancel()
					if err != nil {
						var se *mlaas.StatusError
						switch {
						case errors.As(err, &se) && se.Code == mlaas.StatusBusy:
							continue // quota/admission saturation is a legal outcome
						case errors.Is(err, context.DeadlineExceeded):
							continue // lost the race with our own stagger
						default:
							errc <- fmt.Errorf("tenant %s worker %d: %w", rec.Tenant, w, err)
							return
						}
					}
					for i := range want {
						if math.Abs(logits[i]-want[i]) > 1e-2 {
							errc <- fmt.Errorf("tenant %s logit %d: %g vs %g", rec.Tenant, i, logits[i], want[i])
							return
						}
					}
					smu.Lock()
					successes[ti]++
					smu.Unlock()
				}
			}(ti, w, got)
		}
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	for ti, rec := range recs {
		if successes[ti] == 0 {
			t.Errorf("tenant %s: zero successful inferences across the hammer", rec.Tenant)
		}
	}
}

package gateway

// Chaos harness: a gateway fronting two shards of one model, with
// faultnet fault schedules injected through Shard.Dial on the tenant's
// home shard — response corruption, mid-request resets, a slow-drip
// link, a killed shard, a draining shard, and breaker trip-and-recovery.
// The client is plain mlaas.Client.InferRetry against the gateway's
// address; the gateway's per-shard breaker judges each exchange and
// re-routes. The
// invariant under every schedule is absolute: with one healthy shard,
// every request ends in logits matching the plaintext network.
//
// Each test logs one outcome-table row; the nightly chaos job runs this
// file with -race and FXHENN_HAMMER_ITERS and archives the output, plus
// the client traces FXHENN_CHAOS_TRACE_LOG collects.

import (
	"context"
	"errors"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"fxhenn/internal/cnn"
	"fxhenn/internal/faultnet"
	"fxhenn/internal/mlaas"
	"fxhenn/internal/registry"
	"fxhenn/internal/telemetry"
)

// chaosFleet is the topology every schedule runs on: one tenant, two
// shards sharing its registry, and a gateway; all three share one
// metrics registry.
type chaosFleet struct {
	rec    registry.Record
	pnet   *cnn.Network
	met    *telemetry.Registry
	shards []*clusterShard
	home   string // the tenant's home shard, Ring.PickN(tenant, 2)[0]
	gw     *Gateway
	gwl    net.Listener
}

// newChaosFleet starts the fleet. fault, when non-nil, stands between the
// gateway and every connection it dials to the home shard: it wraps the
// connection or fails the dial. n counts those dials from 1, so fault
// seeds can vary per dial. flights, when given, are the shards' flight
// recorders.
func newChaosFleet(t *testing.T, cfg Config, fault func(conn net.Conn, n int64) (net.Conn, error), flights ...*telemetry.FlightRecorder) *chaosFleet {
	t.Helper()
	base := newBaseCeremony()
	rec := registry.Record{Tenant: "t-chaos", Model: "tiny", WeightSeed: 100, KeySeed: 101}
	reg := registry.New(registry.NewMemStore())
	if err := reg.Register(rec); err != nil {
		t.Fatal(err)
	}
	rec, err := reg.Lookup(rec.Tenant)
	if err != nil {
		t.Fatal(err)
	}
	pnet, err := mlaas.StandardPlaintext(rec)
	if err != nil {
		t.Fatal(err)
	}
	fl := &chaosFleet{rec: rec, pnet: pnet, met: telemetry.NewRegistry()}
	cfg.Metrics = fl.met
	ring := NewRing()
	var shards []Shard
	var homeDials atomic.Int64
	for i, name := range []string{"shard-0", "shard-1"} {
		mcfg := mlaas.Config{Registry: reg, Metrics: fl.met}
		if i < len(flights) {
			mcfg.Flight = flights[i]
		}
		sh := startShardWith(t, name, base, mcfg)
		fl.shards = append(fl.shards, sh)
		ring.Add(name)
		addr := sh.l.Addr().String()
		shards = append(shards, Shard{Name: name, Dial: func(ctx context.Context) (net.Conn, error) {
			var d net.Dialer
			conn, err := d.DialContext(ctx, "tcp", addr)
			if err != nil || name != fl.home || fault == nil {
				return conn, err
			}
			return fault(conn, homeDials.Add(1))
		}})
	}
	fl.home = ring.PickN(rec.Tenant, 2)[0]
	fl.gw = New(cfg, shards...)
	if fl.gwl, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	go fl.gw.Serve(fl.gwl) //nolint:errcheck
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		fl.gw.Shutdown(ctx) //nolint:errcheck
	})
	return fl
}

// shard returns the home shard (home true) or the other one.
func (fl *chaosFleet) shard(home bool) *clusterShard {
	for _, sh := range fl.shards {
		if (sh.name == fl.home) == home {
			return sh
		}
	}
	panic("unreachable")
}

// client builds a traced tenant client. When FXHENN_CHAOS_TRACE_LOG names
// a file, every kept client trace is appended to it as one JSON line —
// the nightly chaos job archives that file, so a failed schedule ships
// its traces with the report.
func (fl *chaosFleet) client(t *testing.T, seed int64) *mlaas.Client {
	t.Helper()
	cl, err := mlaas.StandardTenantClient(fl.rec, seed)
	if err != nil {
		t.Fatal(err)
	}
	cfg := telemetry.FlightConfig{SampleRate: 1}
	if path := os.Getenv("FXHENN_CHAOS_TRACE_LOG"); path != "" {
		f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() })
		cfg.Log = f
	}
	cl.Flight = telemetry.NewFlightRecorder(cfg)
	return cl
}

// infer runs one InferRetry against the gateway; the retry policy never
// really sleeps.
func (fl *chaosFleet) infer(cl *mlaas.Client, img *cnn.Tensor) ([]float64, error) {
	dial := func(ctx context.Context) (net.Conn, error) {
		var d net.Dialer
		return d.DialContext(ctx, "tcp", fl.gwl.Addr().String())
	}
	return cl.InferRetry(context.Background(), dial, img, mlaas.RetryPolicy{
		MaxAttempts: 4,
		Seed:        5,
		Sleep:       func(context.Context, time.Duration) error { return nil },
	})
}

// run hammers the fleet and requires every iteration to produce logits
// matching the plaintext network within tolerance. Every recorded client
// trace must also be coherent: at least one attempt child, at least one
// successful.
func (fl *chaosFleet) run(t *testing.T, cl *mlaas.Client, seed int64) int {
	t.Helper()
	iters := hammerIters() // scaled by FXHENN_HAMMER_ITERS in the nightly hammer
	for i := 0; i < iters; i++ {
		img := clusterImage(fl.pnet, seed+int64(i))
		want := fl.pnet.Infer(img)
		got, err := fl.infer(cl, img)
		if err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		for j := range want {
			if math.Abs(got[j]-want[j]) > 1e-2 {
				t.Fatalf("iteration %d: logit %d: %g vs %g", i, j, got[j], want[j])
			}
		}
	}
	for _, tr := range cl.Flight.Traces() {
		attempts, ok := 0, 0
		for _, c := range tr.Root.Children {
			if c.Name != "attempt" {
				continue
			}
			attempts++
			if c.Attr("outcome") == "ok" {
				ok++
			}
		}
		if tr.Root.Name != "infer-retry" || attempts < 1 || ok < 1 {
			t.Fatalf("trace %s (%s) incoherent: %d attempts, %d ok — every successful iteration needs a winning attempt", tr.Trace, tr.Root.Name, attempts, ok)
		}
	}
	return iters
}

// audit drains the shards, checks their accounting — every exchange a
// schedule provoked, served, refused or failed, is counted exactly once,
// and the shards counted the tenant's exchanges the gateway routed — and
// logs one line of the outcome table the nightly job archives.
func (fl *chaosFleet) audit(t *testing.T, schedule string, cl *mlaas.Client, iters int) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var servers []*mlaas.Server
	for _, sh := range fl.shards {
		if err := sh.srv.Shutdown(ctx); err != nil {
			t.Fatal(err)
		}
		servers = append(servers, sh.srv)
	}
	snap := fl.met.Snapshot()
	routed := 0
	for _, m := range snap.Family(MetricRouted).Metrics {
		routed += int(m.Value)
	}
	// A draining shard refuses before it reads the route frame, so its
	// refusals count under no tenant.
	for _, m := range snap.Family(mlaas.MetricRequestsTotal).Metrics {
		if m.Get("status") == mlaas.StatusShuttingDown.String() {
			routed -= int(m.Value)
		}
	}
	if err := mlaas.CheckAccounting(snap, map[string]int{fl.rec.Tenant: routed}, servers...); err != nil {
		t.Fatal(err)
	}
	t.Logf("chaos outcome | schedule=%-18s iters=%-3d ok=%-3d retries=%-2d traces=%-3d home=%-9s other=%s",
		schedule, iters, iters, cl.Retries, cl.Flight.Kept(),
		fl.gw.BreakerState(fl.home), fl.gw.BreakerState(fl.shard(false).name))
}

// TestChaosCorruptResponse: every response from the home shard corrupts
// inside its payload. The gateway's relay withholds the trailer that no
// longer matches and blames the shard; the FrameCheck client sees a
// typed, retryable ErrFrameCorrupt, and its retry re-routes — corruption
// must cost a retry, never a wrong answer.
func TestChaosCorruptResponse(t *testing.T) {
	fl := newChaosFleet(t, Config{BreakerThreshold: 1, BreakerCooldown: 50 * time.Millisecond},
		func(conn net.Conn, n int64) (net.Conn, error) {
			return faultnet.New(conn, faultnet.Config{Seed: 200 + n, CorruptReadAt: 30, CorruptBytes: 8}), nil
		})
	cl := fl.client(t, 200)
	cl.FrameCheck = true
	iters := fl.run(t, cl, 210)
	if cl.Retries == 0 {
		t.Fatal("corrupt-response schedule completed without a single retry")
	}
	fl.audit(t, "corrupt-response", cl, iters)
}

// TestChaosResetMidRequest: the home shard's link resets partway through
// the request upload. No response byte ever arrives; the gateway blames
// the shard and the client's retry re-routes.
func TestChaosResetMidRequest(t *testing.T) {
	fl := newChaosFleet(t, Config{BreakerThreshold: 1, BreakerCooldown: 50 * time.Millisecond},
		func(conn net.Conn, n int64) (net.Conn, error) {
			return faultnet.New(conn, faultnet.Config{Seed: 220 + n, ResetAfterWrites: 100}), nil
		})
	cl := fl.client(t, 220)
	iters := fl.run(t, cl, 230)
	fl.audit(t, "reset-mid-request", cl, iters)
}

// TestChaosSlowDrip: the home shard's response leaks one byte per 250ms —
// never failing, just unusably slow. The gateway cuts the exchange at its
// IOTimeout and opens the shard's breaker; the client, torn mid-response
// with no deadline of its own tripped, retries onto the other shard.
func TestChaosSlowDrip(t *testing.T) {
	fl := newChaosFleet(t, Config{IOTimeout: 2 * time.Second, BreakerThreshold: 1, BreakerCooldown: time.Minute},
		func(conn net.Conn, n int64) (net.Conn, error) {
			return faultnet.New(conn, faultnet.Config{Seed: 240 + n, DripReads: 250 * time.Millisecond}), nil
		})
	cl := fl.client(t, 240)
	iters := fl.run(t, cl, 250)
	if st := fl.gw.BreakerState(fl.home); st != "open" {
		t.Fatalf("dripping home shard breaker %s, want open", st)
	}
	fl.audit(t, "slow-drip", cl, iters)
}

// TestChaosServerKill: the home shard dies (listener closed) after one
// healthy exchange; every later dial is refused and the gateway re-routes
// in the same pass.
func TestChaosServerKill(t *testing.T) {
	fl := newChaosFleet(t, Config{BreakerThreshold: 1, BreakerCooldown: 50 * time.Millisecond}, nil)
	cl := fl.client(t, 260)

	// One healthy exchange first, so the kill lands on a warm path.
	if _, err := fl.infer(cl, clusterImage(fl.pnet, 261)); err != nil {
		t.Fatalf("pre-kill exchange: %v", err)
	}
	if fl.shard(true).srv.Served() != 1 {
		t.Fatal("the pre-kill exchange was not served by the home shard")
	}
	fl.shard(true).l.Close()

	iters := fl.run(t, cl, 270)
	fl.audit(t, "server-kill", cl, iters)
}

// TestChaosDrainingShard: the home shard begins a graceful drain while
// the gateway still routes to it. Held open by one in-flight request,
// the draining shard keeps accepting connections only to refuse them
// shutting-down; the relay counts that refusal against it, the client
// retries the retryable status, and the retry re-routes.
func TestChaosDrainingShard(t *testing.T) {
	fl := newChaosFleet(t, Config{BreakerThreshold: 1, BreakerCooldown: 50 * time.Millisecond}, nil)
	cl := fl.client(t, 310)
	home := fl.shard(true)

	// An idle connection straight to the home shard is an admitted
	// request blocked reading its header: the drain waits on it.
	hold, err := net.Dial("tcp", home.l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer hold.Close()
	waitFor(t, "the held request to be admitted", func() bool {
		f := fl.met.Snapshot().Family(mlaas.MetricInflight)
		return f != nil && len(f.Metrics) > 0 && f.Metrics[0].Value >= 1
	})
	drained := make(chan error, 1)
	go func() { drained <- home.srv.Shutdown(context.Background()) }()
	waitFor(t, "the home shard to start draining", func() bool {
		rec := httptest.NewRecorder()
		home.srv.Readyz(rec, nil)
		return rec.Code == http.StatusServiceUnavailable
	})

	rejected := home.srv.Stats().Rejected
	iters := fl.run(t, cl, 320)
	if home.srv.Stats().Rejected == rejected || cl.Retries == 0 {
		t.Fatal("no request met the draining shard's refusal")
	}

	hold.Close()
	if err := <-drained; err != nil {
		t.Fatalf("home shard drain: %v", err)
	}
	fl.audit(t, "draining-shard", cl, iters)
}

// waitFor polls cond every millisecond for up to 10s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestChaosBreakerRecovery: the home shard is down long enough to trip
// its breaker (threshold 1), the fleet keeps answering via the other
// shard, and once the home shard heals the half-open probe finds it and
// the breaker closes — traffic returns.
func TestChaosBreakerRecovery(t *testing.T) {
	var healthy atomic.Bool
	fl := newChaosFleet(t, Config{BreakerThreshold: 1, BreakerCooldown: 30 * time.Millisecond},
		func(conn net.Conn, n int64) (net.Conn, error) {
			if healthy.Load() {
				return conn, nil
			}
			conn.Close()
			return nil, errors.New("injected: shard down")
		})
	cl := fl.client(t, 280)

	iters := fl.run(t, cl, 290)
	if st := fl.gw.BreakerState(fl.home); st != "open" {
		t.Fatalf("home shard breaker after the down phase = %s, want open", st)
	}

	// Heal, outlive the cooldown, and the probe must readmit the shard.
	healthy.Store(true)
	time.Sleep(60 * time.Millisecond)
	served := fl.shard(true).srv.Served()
	iters += fl.run(t, cl, 300)
	if st := fl.gw.BreakerState(fl.home); st != "closed" {
		t.Fatalf("home shard breaker after recovery = %s, want closed", st)
	}
	if fl.shard(true).srv.Served() == served {
		t.Fatal("traffic did not return to the healed home shard")
	}
	fl.audit(t, "breaker-recovery", cl, iters)
}

// TestGatewayRetrySingleTraceAcrossShards: the home shard corrupts its
// responses, and a CRC-checking client retries through the gateway. The
// whole exchange — torn attempt, retry, re-routed evaluation — stitches
// under ONE trace ID: the client's infer-retry root holds the attempt
// spans, exactly one of them ok, and a shard's request span joins the
// same trace parented on one of those attempts.
func TestGatewayRetrySingleTraceAcrossShards(t *testing.T) {
	frs := []*telemetry.FlightRecorder{
		telemetry.NewFlightRecorder(telemetry.FlightConfig{SampleRate: 1}),
		telemetry.NewFlightRecorder(telemetry.FlightConfig{SampleRate: 1}),
	}
	fl := newChaosFleet(t, Config{BreakerThreshold: 1, BreakerCooldown: time.Minute},
		func(conn net.Conn, n int64) (net.Conn, error) {
			return faultnet.New(conn, faultnet.Config{Seed: 201, CorruptReadAt: 30, CorruptBytes: 8}), nil
		}, frs...)
	cl := fl.client(t, 63)
	cl.FrameCheck = true
	img := clusterImage(fl.pnet, 63)
	want := fl.pnet.Infer(img)
	got, err := fl.infer(cl, img)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-2 {
			t.Fatalf("logit %d: %g vs %g", i, got[i], want[i])
		}
	}

	ctraces := cl.Flight.Traces()
	if len(ctraces) != 1 || ctraces[0].Root.Name != "infer-retry" {
		t.Fatalf("client recorded %d traces, want one infer-retry root", len(ctraces))
	}
	traceID := ctraces[0].Trace
	okAttempts, attemptSpans := 0, map[string]bool{}
	for _, a := range ctraces[0].Root.Children {
		if a.Name != "attempt" {
			continue
		}
		if a.Trace != traceID {
			t.Fatalf("attempt trace %q, want %q", a.Trace, traceID)
		}
		attemptSpans[a.Span] = true
		if a.Attr("outcome") == "ok" {
			okAttempts++
		}
	}
	if len(attemptSpans) < 2 || okAttempts != 1 {
		t.Fatalf("client recorded %d attempts with %d ok, want ≥2 with exactly 1", len(attemptSpans), okAttempts)
	}

	found := false
	for _, fr := range frs {
		for _, tr := range fr.Traces() {
			if tr.Trace != traceID || tr.Root.Name != "request" || tr.Root.Attr("status") != "ok" {
				continue
			}
			if !attemptSpans[tr.Root.Parent] {
				t.Fatalf("shard request parent %q not one of the client attempts", tr.Root.Parent)
			}
			if tr.Root.Find("queue") == nil {
				t.Fatal("shard trace missing queue-wait span")
			}
			eval := tr.Root.Find("evaluate")
			if eval == nil || len(eval.Children) == 0 {
				t.Fatal("shard trace missing the per-layer evaluate breakdown")
			}
			for _, l := range eval.Children {
				if l.Attr("hops") == "" || l.Attr("ks") == "" {
					t.Fatalf("layer span %q missing hops/ks attrs", l.Name)
				}
			}
			found = true
		}
	}
	if !found {
		t.Fatalf("no shard recorded an ok request under trace %s", traceID)
	}
}

package mlaas

// Chaos harness: a two-server failover topology driven through faultnet
// fault schedules — response corruption, mid-request resets, slow-drip
// links, killed servers, and breaker recovery. The invariant under every
// schedule is absolute: with one healthy replica in the set, every
// request must end in digest-correct logits (faults are absorbed by
// failover, hedging, CRC detection, and the circuit breakers) or — never
// here, since a healthy replica exists — exactly one typed error.
//
// Each test logs one outcome-table row; the nightly chaos job runs this
// file with -race and FXHENN_HAMMER_ITERS and archives the output.

import (
	"context"
	"errors"
	"math"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fxhenn/internal/faultnet"
	"fxhenn/internal/hecnn"
	"fxhenn/internal/telemetry"
)

// chaosIters scales the per-schedule iteration count: 2 in the tier-1
// suite, FXHENN_HAMMER_ITERS times that in the nightly hammer.
func chaosIters() int { return 2 * hammerScale() }

// faultyEndpoint wraps every dialed connection in a faultnet injector;
// seeds vary per dial so corruption masks differ across attempts.
func faultyEndpoint(base Endpoint, cfg faultnet.Config) Endpoint {
	var dials atomic.Int64
	return Endpoint{Name: base.Name, Dial: func(ctx context.Context) (net.Conn, error) {
		conn, err := base.Dial(ctx)
		if err != nil {
			return nil, err
		}
		c := cfg
		c.Seed += dials.Add(1)
		return faultnet.New(conn, c), nil
	}}
}

// chaosFlight attaches a flight recorder to a chaos client. When
// FXHENN_CHAOS_TRACE_LOG names a file, every kept trace is appended to
// it as one JSON line — the nightly chaos job archives that file, so a
// failed schedule ships its traces with the report.
func chaosFlight(t *testing.T, cl *Client) {
	t.Helper()
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
}

// runChaos hammers InferHedged over eps and requires every iteration to
// produce logits matching the plaintext network within tolerance. When
// the client carries a flight recorder, every recorded hedged trace must
// also be coherent: at least one attempt child, at least one successful.
func runChaos(t *testing.T, fl *fleetFixture, cl *Client, eps []Endpoint, p FailoverPolicy, seed int64) int {
	t.Helper()
	iters := chaosIters()
	for i := 0; i < iters; i++ {
		img := randomImage(seed + int64(i))
		want := fl.pnet.Infer(img)
		got, err := cl.InferHedged(context.Background(), eps, img, p)
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
		if tr.Root.Name != "infer-hedged" {
			continue
		}
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
		if attempts < 1 || ok < 1 {
			t.Fatalf("trace %s incoherent: %d attempts, %d ok — every successful iteration needs a winning attempt", tr.Trace, attempts, ok)
		}
	}
	return iters
}

// logChaosRow emits one line of the outcome table the nightly job
// archives.
func logChaosRow(t *testing.T, schedule string, cl *Client, iters int) {
	t.Helper()
	t.Logf("chaos outcome | schedule=%-18s iters=%-3d ok=%-3d retries=%-2d hedges=%-2d traces=%-3d s0=%-9s s1=%s",
		schedule, iters, iters, cl.Retries, cl.Hedges, cl.Flight.Kept(),
		cl.EndpointBreakerState("s0"), cl.EndpointBreakerState("s1"))
}

// chaosFleet starts the two-replica fleet a schedule runs on. Both
// replicas share one metrics registry, so the schedule can audit the
// fleet's accounting when it ends.
func chaosFleet(t *testing.T) (*fleetFixture, *telemetry.Registry) {
	met := telemetry.NewRegistry()
	return newFleet(t, Config{Metrics: met}, Config{Metrics: met}), met
}

// auditChaos drains the servers, then checks their accounting: every
// exchange a fault schedule provoked — served, refused or failed — is
// counted exactly once, and none was routed.
func auditChaos(t *testing.T, met *telemetry.Registry, servers ...*Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, s := range servers {
		if err := s.Shutdown(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if err := CheckAccounting(met.Snapshot(), nil, servers...); err != nil {
		t.Fatal(err)
	}
}

// TestChaosCorruptResponse: every byte stream from s0 corrupts inside the
// response payload. The FrameCheck client turns silent damage into a
// typed ErrFrameCorrupt and fails over to the clean replica — corruption
// must cost a retry, never a wrong answer.
func TestChaosCorruptResponse(t *testing.T) {
	fl, met := chaosFleet(t)
	cl := NewClient(fl.params, fl.henet, fl.pk, fl.sk, 200)
	chaosFlight(t, cl)
	cl.FrameCheck = true
	eps := []Endpoint{
		faultyEndpoint(fl.endpoint(0), faultnet.Config{Seed: 201, CorruptReadAt: 30, CorruptBytes: 8}),
		fl.endpoint(1),
	}
	iters := runChaos(t, fl, cl, eps, fastPolicy(), 210)
	auditChaos(t, met, fl.servers...)
	logChaosRow(t, "corrupt-response", cl, iters)
}

// TestChaosResetMidRequest: s0 resets the connection partway through the
// request upload — no response bytes ever arrive, so the failure is
// cleanly retryable and the round fails over.
func TestChaosResetMidRequest(t *testing.T) {
	fl, met := chaosFleet(t)
	cl := NewClient(fl.params, fl.henet, fl.pk, fl.sk, 220)
	chaosFlight(t, cl)
	eps := []Endpoint{
		faultyEndpoint(fl.endpoint(0), faultnet.Config{Seed: 221, ResetAfterWrites: 100}),
		fl.endpoint(1),
	}
	iters := runChaos(t, fl, cl, eps, fastPolicy(), 230)
	auditChaos(t, met, fl.servers...)
	logChaosRow(t, "reset-mid-request", cl, iters)
}

// TestChaosSlowDrip: s0 leaks the response one byte per 250ms — never
// failing, just unusably slow. The timed hedge routes around it; the
// abandoned attempt must release its half-open probes instead of wedging
// the breaker.
func TestChaosSlowDrip(t *testing.T) {
	fl, met := chaosFleet(t)
	cl := NewClient(fl.params, fl.henet, fl.pk, fl.sk, 240)
	chaosFlight(t, cl)
	p := fastPolicy()
	p.Hedge = true
	p.HedgeInitial = 100 * time.Millisecond
	eps := []Endpoint{
		faultyEndpoint(fl.endpoint(0), faultnet.Config{Seed: 241, DripReads: 250 * time.Millisecond}),
		fl.endpoint(1),
	}
	iters := runChaos(t, fl, cl, eps, p, 250)
	if cl.Hedges == 0 {
		t.Fatal("slow-drip schedule completed without a single hedge")
	}
	auditChaos(t, met, fl.servers...)
	logChaosRow(t, "slow-drip", cl, iters)
}

// TestChaosServerKill: s0 dies (listener closed) after one healthy
// exchange; every later dial is refused and fails over inside the round.
func TestChaosServerKill(t *testing.T) {
	fl, met := chaosFleet(t)
	cl := NewClient(fl.params, fl.henet, fl.pk, fl.sk, 260)
	chaosFlight(t, cl)
	eps := []Endpoint{fl.endpoint(0), fl.endpoint(1)}

	// One healthy exchange first, so the kill lands on a warm path.
	img := randomImage(261)
	if _, err := cl.InferHedged(context.Background(), eps, img, fastPolicy()); err != nil {
		t.Fatalf("pre-kill exchange: %v", err)
	}
	fl.ls[0].Close()

	iters := runChaos(t, fl, cl, eps, fastPolicy(), 270)
	auditChaos(t, met, fl.servers...)
	logChaosRow(t, "server-kill", cl, iters)
}

// TestChaosBreakerRecovery: s0 is down long enough to trip its breaker
// (threshold 1), the fleet keeps answering via s1, and once s0 heals the
// half-open probe finds it and the breaker closes — traffic returns.
func TestChaosBreakerRecovery(t *testing.T) {
	fl, met := chaosFleet(t)
	cl := NewClient(fl.params, fl.henet, fl.pk, fl.sk, 280)
	chaosFlight(t, cl)

	var healthy atomic.Bool
	base := fl.endpoint(0)
	flaky := Endpoint{Name: base.Name, Dial: func(ctx context.Context) (net.Conn, error) {
		if !healthy.Load() {
			return nil, errors.New("injected: endpoint down")
		}
		return base.Dial(ctx)
	}}
	p := fastPolicy()
	p.Breaker = BreakerConfig{Threshold: 1, Cooldown: 30 * time.Millisecond, Jitter: 0.01, Seed: 8}
	eps := []Endpoint{flaky, fl.endpoint(1)}

	// Down phase: first call trips s0's breaker, later calls skip it.
	iters := runChaos(t, fl, cl, eps, p, 290)
	if st := cl.EndpointBreakerState("s0"); st != "open" {
		t.Fatalf("s0 breaker after down phase = %s, want open", st)
	}

	// Heal, outlive the cooldown, and the probe must readmit s0.
	healthy.Store(true)
	time.Sleep(60 * time.Millisecond)
	iters += runChaos(t, fl, cl, eps, p, 300)
	if st := cl.EndpointBreakerState("s0"); st != "closed" {
		t.Fatalf("s0 breaker after recovery = %s, want closed", st)
	}
	auditChaos(t, met, fl.servers...)
	logChaosRow(t, "breaker-recovery", cl, iters)
}

// TestChaosBatchDegradation hammers the batch degradation ladder over the
// real wire: the coalesced evaluation fails on alternating flushes, and
// every batched request — coalesced or degraded — must still decrypt
// correct logits.
func TestChaosBatchDegradation(t *testing.T) {
	met := telemetry.NewRegistry()
	fx := newBatchFixture(t, Config{MaxConcurrent: 2, Metrics: met}, 2, time.Hour)
	fx.server.def.bat.brk = NewBreaker(BreakerConfig{Threshold: 1, Cooldown: 10 * time.Millisecond, Jitter: 0.01, Seed: 12})
	bat := fx.server.def.bat
	var coalescedCalls atomic.Int32
	bat.evalHook = func(cts [][]*hecnn.CT) ([]*hecnn.CT, error) {
		if len(cts) > 1 && coalescedCalls.Add(1)%2 == 1 {
			return nil, errInjected
		}
		outs, _, err := bat.cb.EvaluateBatch(bat.ctx, cts)
		return outs, err
	}

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go fx.server.Serve(l) //nolint:errcheck

	waves := chaosIters()
	for wave := 0; wave < waves; wave++ {
		imgs := []int64{int64(310 + 2*wave), int64(311 + 2*wave)}
		var wg sync.WaitGroup
		errs := make([]error, 2)
		for i, seed := range imgs {
			wg.Add(1)
			go func(i int, seed int64) {
				defer wg.Done()
				img := randomImage(seed)
				want := fx.pnet.Infer(img)
				bc := fx.batchClient(seed)
				conn, err := net.Dial("tcp", l.Addr().String())
				if err != nil {
					errs[i] = err
					return
				}
				defer conn.Close()
				got, err := bc.Infer(context.Background(), conn, img)
				if err != nil {
					errs[i] = err
					return
				}
				for j := range want {
					if math.Abs(got[j]-want[j]) > 1e-2 {
						errs[i] = errLogitMismatch
						return
					}
				}
			}(i, seed)
		}
		wg.Wait()
		for i, werr := range errs {
			if werr != nil {
				t.Fatalf("wave %d client %d: %v", wave, i, werr)
			}
		}
		// Let the breaker's cooldown elapse so the next wave probes the
		// coalesced path again instead of degrading forever.
		time.Sleep(20 * time.Millisecond)
	}
	if coalescedCalls.Load() == 0 {
		t.Fatal("fault injector never saw a coalesced evaluation")
	}
	auditChaos(t, met, fx.server)
	t.Logf("chaos outcome | schedule=%-18s iters=%-3d ok=%-3d coalesced-calls=%d batch-breaker=%s",
		"batch-degradation", 2*waves, 2*waves, coalescedCalls.Load(), bat.brk.State())
}

// errLogitMismatch keeps the wave goroutines' failure reporting simple.
var errLogitMismatch = errors.New("logits outside tolerance")

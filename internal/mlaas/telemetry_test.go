package mlaas

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"fxhenn/internal/telemetry"
)

// hammerScale reads FXHENN_HAMMER_ITERS, the multiplier the nightly CI
// workflow sets to turn the -race consistency tests into long hammers.
// Unset or invalid means 1: the regular suite stays fast.
func hammerScale() int {
	if n, err := strconv.Atoi(os.Getenv("FXHENN_HAMMER_ITERS")); err == nil && n > 1 {
		return n
	}
	return 1
}

// metricsFixture is a TCP fixture with a live registry and slow-request
// log capture.
type metricsFixture struct {
	*tcpFixture
	reg  *telemetry.Registry
	slow *lockedBuffer
}

// lockedBuffer is a goroutine-safe bytes.Buffer for log capture.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (lb *lockedBuffer) Write(p []byte) (int, error) {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	return lb.b.Write(p)
}

func (lb *lockedBuffer) String() string {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	return lb.b.String()
}

func newMetricsFixture(t testing.TB, cfg Config) *metricsFixture {
	t.Helper()
	reg := telemetry.NewRegistry()
	slow := &lockedBuffer{}
	cfg.Metrics = reg
	if cfg.SlowRequestThreshold > 0 {
		cfg.SlowRequestLog = slow
	}
	return &metricsFixture{tcpFixture: newTCPFixture(t, cfg), reg: reg, slow: slow}
}

// counterValue reads one labeled counter out of a snapshot (0 if absent).
func counterValue(t testing.TB, snap telemetry.Snapshot, name string, labels ...telemetry.Label) int64 {
	t.Helper()
	fam := snap.Family(name)
	if fam == nil {
		return 0
	}
	m := fam.Metric(labels...)
	if m == nil {
		return 0
	}
	return int64(m.Value)
}

// TestTelemetryFullInference: one clean inference populates the status
// counter, every lifecycle phase histogram, the whole-request histogram,
// and the per-layer families — with layer op counts exactly matching the
// network's layer set — and the in-flight gauge returns to zero.
func TestTelemetryFullInference(t *testing.T) {
	fx := newMetricsFixture(t, Config{})
	conn := fx.dial(t)
	if _, err := fx.client.Infer(context.Background(), conn, randomImage(3)); err != nil {
		t.Fatal(err)
	}
	conn.Close()

	snap := fx.reg.Snapshot()
	if got := counterValue(t, snap, MetricRequestsTotal, telemetry.L("status", StatusOK.String())); got != 1 {
		t.Fatalf("requests_total{status=ok} = %d, want 1", got)
	}
	if err := CheckAccounting(snap, nil, fx.server); err != nil {
		t.Fatal(err)
	}
	req := snap.Family(MetricRequestSeconds).Metric()
	if req == nil || req.Count != 1 {
		t.Fatalf("request histogram count = %+v, want 1 observation", req)
	}
	for _, ph := range []string{"queue", "decode", "validate", "evaluate", "encode"} {
		m := snap.Family(MetricPhaseSeconds).Metric(telemetry.L("phase", ph))
		if m == nil || m.Count != 1 {
			t.Fatalf("phase %q histogram missing or empty: %+v", ph, m)
		}
	}
	if g := snap.Family(MetricInflight).Metric(); g == nil || g.Value != 0 {
		t.Fatalf("inflight gauge = %+v, want 0 after completion", g)
	}

	// Per-layer families: one metric per network layer, HOPs positive, and
	// the totals equal to a count of the same network (the layer metrics
	// come from the same fold of the network's program, so they must agree).
	rec := fx.henet.Count(fx.params.MaxLevel())
	var hops, ks int64
	for _, l := range fx.henet.Layers {
		lbls := []telemetry.Label{telemetry.L("net", fx.henet.Name), telemetry.L("layer", l.Name())}
		h := counterValue(t, snap, MetricLayerHOPs, lbls...)
		if h <= 0 {
			t.Fatalf("layer %s: no HOPs recorded", l.Name())
		}
		hops += h
		ks += counterValue(t, snap, MetricLayerKS, lbls...)
		sec := snap.Family(MetricLayerSeconds).Metric(lbls...)
		if sec == nil || sec.Count != 1 {
			t.Fatalf("layer %s: wall-time histogram missing or empty", l.Name())
		}
	}
	if int(hops) != rec.TotalHOPs() || int(ks) != rec.TotalKeySwitches() {
		t.Fatalf("layer metrics %d/%d != dry-run trace %d/%d", hops, ks, rec.TotalHOPs(), rec.TotalKeySwitches())
	}
}

// slowWriter delays its first Write, as a client that connects and then
// spends that long encrypting does.
type slowWriter struct {
	net.Conn
	delay time.Duration
	once  sync.Once
}

func (w *slowWriter) Write(p []byte) (int, error) {
	w.once.Do(func() { time.Sleep(w.delay) })
	return w.Conn.Write(p)
}

// TestDecodePhaseExcludesClientDelay: the decode phase starts once the
// request header is read, so the time a client takes before it writes —
// 300 ms here — is not charged to the server's decoding.
func TestDecodePhaseExcludesClientDelay(t *testing.T) {
	fx := newMetricsFixture(t, Config{})
	conn := fx.dial(t)
	defer conn.Close()
	if _, err := fx.client.Infer(context.Background(), &slowWriter{Conn: conn, delay: 300 * time.Millisecond}, randomImage(4)); err != nil {
		t.Fatal(err)
	}
	m := fx.reg.Snapshot().Family(MetricPhaseSeconds).Metric(telemetry.L("phase", "decode"))
	if m == nil || m.Count != 1 {
		t.Fatalf("decode phase histogram %+v, want 1 observation", m)
	}
	if m.Sum >= 0.1 {
		t.Fatalf("decode phase %.0f ms, want under 100 ms: it counts the client's delay", 1000*m.Sum)
	}
}

// TestRequestIDsInFailureMessages: server-side failure messages carry the
// monotonic request id, so a client-observed error correlates with the
// server's slow-request log and telemetry.
func TestRequestIDsInFailureMessages(t *testing.T) {
	fx := newMetricsFixture(t, Config{})
	for want := 1; want <= 3; want++ {
		conn := fx.dial(t)
		var hdr [4]byte
		binary.LittleEndian.PutUint32(hdr[:], 9999) // hostile count
		if _, err := conn.Write(hdr[:]); err != nil {
			t.Fatal(err)
		}
		st, msg := readFailure(t, conn, 2*time.Second)
		conn.Close()
		if st != StatusBadRequest {
			t.Fatalf("status %v, want bad request", st)
		}
		if !strings.HasPrefix(msg, fmt.Sprintf("req %d: ", want)) {
			t.Fatalf("failure message %q missing monotonic id prefix %q", msg, fmt.Sprintf("req %d: ", want))
		}
	}
}

// TestSlowRequestLogBreakdown: a request over the threshold emits one
// structured line with the request id, status, per-phase spans, and the
// per-layer evaluate breakdown with op counts.
func TestSlowRequestLogBreakdown(t *testing.T) {
	fx := newMetricsFixture(t, Config{SlowRequestThreshold: time.Nanosecond})
	conn := fx.dial(t)
	if _, err := fx.client.Infer(context.Background(), conn, randomImage(5)); err != nil {
		t.Fatal(err)
	}
	conn.Close()

	// The log line is written inside outcome(), before the response reaches
	// the client, so it is visible by now — but poll briefly to be safe
	// against scheduling of the handler goroutine's tail.
	deadline := time.Now().Add(2 * time.Second)
	var line string
	for time.Now().Before(deadline) {
		if line = fx.slow.String(); strings.Contains(line, "slow request") {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, want := range []string{
		"mlaas: slow request", "req=1", "status=ok",
		"decode", "evaluate", "encode",
		fx.henet.Layers[0].Name(), "hops=",
	} {
		if !strings.Contains(line, want) {
			t.Fatalf("slow log missing %q:\n%s", want, line)
		}
	}
	if got := counterValue(t, fx.reg.Snapshot(), MetricSlowRequests); got != 1 {
		t.Fatalf("slow_requests_total = %d, want 1", got)
	}
}

// TestStatsSnapshotConsistentUnderLoad hammers Stats() from readers while
// a mix of good and bad requests completes concurrently; under -race this
// pins that every counter mutation and the snapshot read are synchronized,
// and the final snapshot accounts for every request exactly once.
func TestStatsSnapshotConsistentUnderLoad(t *testing.T) {
	// FXHENN_HAMMER_ITERS (the nightly CI knob) multiplies the load; the
	// exact-count assertions below hold at any scale.
	var (
		goodReqs = 4 * hammerScale()
		badReqs  = 12 * hammerScale()
	)
	// Enough slots for every request at once: on a loaded runner the
	// arrivals can bunch, and a busy refusal would shift a request from
	// the bad-request column this test pins exact counts for.
	fx := newMetricsFixture(t, Config{MaxConcurrent: goodReqs + badReqs})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Readers: continuously snapshot Stats and check internal consistency
	// (no negative counters, no torn combination).
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				st := fx.server.Stats()
				if st.Served < 0 || st.BadRequests < 0 || st.Rejected < 0 || st.Panics < 0 {
					t.Error("negative counter in snapshot")
					return
				}
				fx.reg.Snapshot()
			}
		}()
	}

	var work sync.WaitGroup
	for i := 0; i < goodReqs; i++ {
		work.Add(1)
		go func(seed int64) {
			defer work.Done()
			cl := NewClient(fx.params, fx.henet, fx.pk, fx.sk, 700+seed)
			conn := fx.dial(t)
			defer conn.Close()
			if _, err := cl.Infer(context.Background(), conn, randomImage(seed)); err != nil {
				t.Errorf("good request failed: %v", err)
			}
		}(int64(i))
	}
	for i := 0; i < badReqs; i++ {
		work.Add(1)
		go func() {
			defer work.Done()
			conn := fx.dial(t)
			defer conn.Close()
			var hdr [4]byte
			binary.LittleEndian.PutUint32(hdr[:], 9999)
			if _, err := conn.Write(hdr[:]); err != nil {
				t.Errorf("writing bad request: %v", err)
				return
			}
			readFailure(t, conn, 5*time.Second)
		}()
	}
	work.Wait()
	close(stop)
	wg.Wait()

	st := fx.server.Stats()
	if st.Served != goodReqs || st.BadRequests != badReqs || st.Panics != 0 {
		t.Fatalf("final stats %+v, want served=%d bad=%d", st, goodReqs, badReqs)
	}
	snap := fx.reg.Snapshot()
	ok := counterValue(t, snap, MetricRequestsTotal, telemetry.L("status", StatusOK.String()))
	bad := counterValue(t, snap, MetricRequestsTotal, telemetry.L("status", StatusBadRequest.String()))
	if ok != int64(goodReqs) || bad != int64(badReqs) {
		t.Fatalf("telemetry counters ok=%d bad=%d, want %d/%d", ok, bad, goodReqs, badReqs)
	}
	if err := CheckAccounting(snap, nil, fx.server); err != nil {
		t.Fatal(err)
	}
	if g := snap.Family(MetricInflight).Metric(); g.Value != 0 {
		t.Fatalf("inflight = %v after all requests done", g.Value)
	}
}

// TestFaultPanicWithTelemetry re-runs the deep-evaluation-panic fault with
// the full telemetry stack enabled: the panic is still confined to one
// request, the internal-status counter ticks, and the server serves the
// next inference cleanly.
func TestFaultPanicWithTelemetry(t *testing.T) {
	fx := newMetricsFixture(t, Config{SlowRequestThreshold: time.Nanosecond})
	fx.server.testEvalHook = func() { panic("injected evaluator fault") }

	conn := fx.dial(t)
	_, err := fx.client.Infer(context.Background(), conn, randomImage(7))
	conn.Close()
	se, ok := err.(*StatusError)
	if !ok || se.Code != StatusInternal {
		t.Fatalf("want StatusInternal, got %v", err)
	}
	if !strings.Contains(se.Msg, "req 1: ") {
		t.Fatalf("panic failure message %q missing request id", se.Msg)
	}

	fx.server.testEvalHook = nil
	fx.mustInferOK(t, 8)

	snap := fx.reg.Snapshot()
	if got := counterValue(t, snap, MetricRequestsTotal, telemetry.L("status", StatusInternal.String())); got != 1 {
		t.Fatalf("requests_total{status=internal} = %d, want 1", got)
	}
	if got := counterValue(t, snap, MetricRequestsTotal, telemetry.L("status", StatusOK.String())); got != 1 {
		t.Fatalf("requests_total{status=ok} = %d, want 1", got)
	}
	if fx.server.Stats().Panics != 1 {
		t.Fatalf("Panics = %d, want 1", fx.server.Stats().Panics)
	}
}

// TestDigestLine: the one-line digest reflects the counters and evaluate
// quantiles, and RunDigest emits it periodically until stopped.
func TestDigestLine(t *testing.T) {
	fx := newMetricsFixture(t, Config{})
	d := fx.server.NewDigest()

	conn := fx.dial(t)
	if _, err := fx.client.Infer(context.Background(), conn, randomImage(11)); err != nil {
		t.Fatal(err)
	}
	conn.Close()

	line := d.Line()
	for _, want := range []string{"served=1", "busy_refused=0", "bad=0", "panics=0"} {
		if !strings.Contains(line, want) {
			t.Fatalf("digest %q missing %q", line, want)
		}
	}
	if strings.Contains(line, "evaluate_p50=n/a") {
		t.Fatalf("digest %q: evaluate quantiles should be live after an inference", line)
	}

	// RunDigest: emits at least one line, stops when told.
	buf := &lockedBuffer{}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		fx.server.RunDigest(buf, 10*time.Millisecond, stop)
	}()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && !strings.Contains(buf.String(), "mlaas: digest") {
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	<-done
	if !strings.Contains(buf.String(), "mlaas: digest") {
		t.Fatalf("RunDigest emitted nothing:\n%s", buf.String())
	}

	// Disabled configurations never start.
	fx.server.RunDigest(nil, time.Second, stop)
	fx.server.RunDigest(buf, 0, stop)
}

// TestTelemetryDisabledNoTrace: with no registry and no slow threshold the
// server takes the untraced path (observes() false) and still works.
func TestTelemetryDisabledNoTrace(t *testing.T) {
	fx := newTCPFixture(t, Config{})
	if fx.server.observes() {
		t.Fatal("server with zero Config should not observe")
	}
	fx.mustInferOK(t, 15)
}

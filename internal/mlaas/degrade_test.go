package mlaas

// Batch-degradation suite: the graceful ladder from coalesced evaluation
// down to per-member recovery. Scheduler-level tests drive flush/degrade
// directly through the evalHook seam; the protocol-level test runs two
// real batched clients through a failing coalesced path and asserts both
// still get correct logits, plus the metrics the ladder exports.

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fxhenn/internal/cnn"
	"fxhenn/internal/hecnn"
	"fxhenn/internal/telemetry"
)

// errInjected is the coalesced-evaluation fault the hooks in this file
// inject.
var errInjected = errors.New("injected coalesced failure")

// recordingHook wraps an evalHook, recording the occupancy of every call.
type recordingHook struct {
	mu   sync.Mutex
	occs []int
	fn   func(cts [][]*hecnn.CT) ([]*hecnn.CT, error)
}

func (h *recordingHook) hook(cts [][]*hecnn.CT) ([]*hecnn.CT, error) {
	h.mu.Lock()
	h.occs = append(h.occs, len(cts))
	h.mu.Unlock()
	return h.fn(cts)
}

func (h *recordingHook) calls() []int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]int(nil), h.occs...)
}

// TestBatchDegradeRecoversMembers: a failed coalesced evaluation re-runs
// every claimed member individually — each gets occupancy-1 logits in
// slot 0 instead of sharing the batch failure.
func TestBatchDegradeRecoversMembers(t *testing.T) {
	b, _ := newUnitBatcher(2, time.Hour, 1)
	defer b.stop()
	// newUnitBatcher bypasses BatchConfig.withDefaults, so pin the batch
	// path's threshold-1 breaker explicitly (cooldown long enough that it
	// stays open for the whole test).
	b.brk = NewBreaker(BreakerConfig{Threshold: 1, Cooldown: time.Hour, Seed: 2})
	rec := &recordingHook{fn: func(cts [][]*hecnn.CT) ([]*hecnn.CT, error) {
		if len(cts) > 1 {
			return nil, errInjected
		}
		return fakeOuts(4), nil
	}}
	b.evalHook = rec.hook

	m1, m2 := unitMember(time.Hour), unitMember(time.Hour)
	for _, m := range []*batchMember{m1, m2} {
		if we := b.submit(m); we != nil {
			t.Fatal(we)
		}
	}
	for i, m := range []*batchMember{m1, m2} {
		out := waitOutcome(t, m, 5*time.Second)
		if out.err != nil {
			t.Fatalf("member %d not recovered: %v", i, out.err)
		}
		if out.slot != 0 {
			t.Fatalf("member %d: degraded slot = %d, want 0 (occupancy-1)", i, out.slot)
		}
	}
	if got := rec.calls(); len(got) != 3 || got[0] != 2 || got[1] != 1 || got[2] != 1 {
		t.Fatalf("evaluation occupancies = %v, want [2 1 1]", got)
	}

	// The failed flush tripped the breaker (batch threshold defaults to 1):
	// the next flush skips the coalesced attempt entirely.
	m3, m4 := unitMember(time.Hour), unitMember(time.Hour)
	for _, m := range []*batchMember{m3, m4} {
		if we := b.submit(m); we != nil {
			t.Fatal(we)
		}
	}
	for i, m := range []*batchMember{m3, m4} {
		if out := waitOutcome(t, m, 5*time.Second); out.err != nil {
			t.Fatalf("member %d under open breaker: %v", i, out.err)
		}
	}
	if got := rec.calls(); len(got) != 5 || got[3] != 1 || got[4] != 1 {
		t.Fatalf("occupancies after breaker opened = %v, want [2 1 1 1 1]", got)
	}
}

// TestBatchDegradePanicIsolated: a panicking coalesced evaluation must
// not kill the scheduler goroutine — members recover individually and the
// batcher keeps serving.
func TestBatchDegradePanicIsolated(t *testing.T) {
	b, _ := newUnitBatcher(2, time.Hour, 1)
	defer b.stop()
	b.evalHook = func(cts [][]*hecnn.CT) ([]*hecnn.CT, error) {
		if len(cts) > 1 {
			panic("injected coalesced panic")
		}
		return fakeOuts(4), nil
	}
	m1, m2 := unitMember(time.Hour), unitMember(time.Hour)
	for _, m := range []*batchMember{m1, m2} {
		if we := b.submit(m); we != nil {
			t.Fatal(we)
		}
	}
	for i, m := range []*batchMember{m1, m2} {
		if out := waitOutcome(t, m, 5*time.Second); out.err != nil {
			t.Fatalf("member %d after panic: %v", i, out.err)
		}
	}
	// Scheduler must still be alive.
	m3 := unitMember(time.Hour)
	if we := b.submit(m3); we != nil {
		t.Fatal(we)
	}
	b.drain()
	if out := waitOutcome(t, m3, 5*time.Second); out.err != nil {
		t.Fatalf("scheduler dead after panic recovery: %v", out.err)
	}
}

// TestBatchDegradeSkipsWithdrawnMember pins the race between a handler
// withdrawing its member (timeout) and a failing flush: the withdrawn
// member must never reach the degraded path — nobody would read its
// logits — while its co-travellers still recover.
func TestBatchDegradeSkipsWithdrawnMember(t *testing.T) {
	b, _ := newUnitBatcher(2, time.Hour, 1)
	defer b.stop()
	// The first (coalesced) evaluation fails whatever its occupancy —
	// the withdrawn member must stay invisible to the degrade loop that
	// follows.
	var calls atomic.Int32
	rec := &recordingHook{fn: func(cts [][]*hecnn.CT) ([]*hecnn.CT, error) {
		if calls.Add(1) == 1 {
			return nil, errInjected
		}
		return fakeOuts(4), nil
	}}
	b.evalHook = rec.hook

	m1, m2 := unitMember(time.Hour), unitMember(time.Hour)
	// The handler side wins the claim CAS before the flush sees the batch —
	// exactly what a timed-out batched request does on its way out.
	if !m2.claimed.CompareAndSwap(false, true) {
		t.Fatal("fresh member already claimed")
	}
	for _, m := range []*batchMember{m1, m2} {
		if we := b.submit(m); we != nil {
			t.Fatal(we)
		}
	}

	out := waitOutcome(t, m1, 5*time.Second)
	if out.err != nil {
		t.Fatalf("surviving member: %v", out.err)
	}
	// The flush only claimed m1: its lone coalesced attempt (occupancy 1)
	// failed, then the degraded re-run recovered it. m2 was never evaluated
	// and never hears back.
	if got := rec.calls(); len(got) != 2 || got[0] != 1 || got[1] != 1 {
		t.Fatalf("occupancies = %v, want [1 1] (withdrawn member never evaluated)", got)
	}
	select {
	case stray := <-m2.result:
		t.Fatalf("withdrawn member received an outcome: %+v", stray)
	default:
	}
}

// TestBatchDegradeExpiredMemberRefused: a member whose budget ran out
// between the claim and the degraded re-run is refused with StatusBusy
// instead of being evaluated dead.
func TestBatchDegradeExpiredMemberRefused(t *testing.T) {
	b, _ := newUnitBatcher(2, time.Hour, 1)
	defer b.stop()
	rec := &recordingHook{fn: func(cts [][]*hecnn.CT) ([]*hecnn.CT, error) {
		if len(cts) > 1 {
			return nil, errInjected
		}
		return fakeOuts(4), nil
	}}
	b.evalHook = rec.hook

	m1 := unitMember(time.Hour)
	m2 := unitMember(time.Nanosecond) // expires before the degrade loop runs
	for _, m := range []*batchMember{m1, m2} {
		if we := b.submit(m); we != nil {
			t.Fatal(we)
		}
	}

	if out := waitOutcome(t, m1, 5*time.Second); out.err != nil {
		t.Fatalf("live member not recovered: %v", out.err)
	}
	out2 := waitOutcome(t, m2, 5*time.Second)
	if out2.err == nil || out2.err.status != StatusBusy {
		t.Fatalf("expired member outcome = %+v, want StatusBusy refusal", out2)
	}
	if !strings.Contains(out2.err.msg, "expired") {
		t.Fatalf("expired-member refusal %q does not say so", out2.err.msg)
	}
	// One coalesced attempt at occupancy 2, one degraded re-run for the
	// live member only.
	if got := rec.calls(); len(got) != 2 || got[0] != 2 || got[1] != 1 {
		t.Fatalf("occupancies = %v, want [2 1]", got)
	}
}

// TestBatchDegradationEndToEnd drives the full wire protocol through a
// poisoned coalesced path: two real batched clients, a coalesced
// evaluation that fails, and the contract that both still decrypt correct
// logits from their occupancy-1 re-runs. Then the breaker's half-open
// probe heals the path and coalescing resumes — observable through the
// degraded counter standing still and the breaker gauge closing.
func TestBatchDegradationEndToEnd(t *testing.T) {
	reg := telemetry.NewRegistry()
	fx := newBatchFixture(t, Config{Metrics: reg, MaxConcurrent: 2}, 2, time.Hour)
	// A short, jitter-free cooldown so the half-open probe arrives within
	// test time. Replaced before any request: the scheduler has not touched
	// the breaker yet.
	fx.server.def.bat.brk = NewBreaker(BreakerConfig{Threshold: 1, Cooldown: 20 * time.Millisecond, Jitter: 0.01, Seed: 11})
	var failCoalesced atomic.Bool
	failCoalesced.Store(true)
	bat := fx.server.def.bat
	bat.evalHook = func(cts [][]*hecnn.CT) ([]*hecnn.CT, error) {
		if len(cts) > 1 && failCoalesced.Load() {
			return nil, errInjected
		}
		return bat.cb.EvaluateBatch(bat.ctx, cts)
	}

	img1, img2 := randomImage(60), randomImage(61)
	want1, want2 := fx.pnet.Infer(img1), fx.pnet.Infer(img2)

	runPair := func(label string, w1, w2 []float64) {
		t.Helper()
		var wg sync.WaitGroup
		errs := make([]error, 2)
		logits := make([][]float64, 2)
		for i, img := range []*cnn.Tensor{img1, img2} {
			wg.Add(1)
			go func(i int, img *cnn.Tensor) {
				defer wg.Done()
				bc := fx.batchClient(int64(62 + i))
				conn, done := serveOne(t, fx.server)
				defer func() { conn.Close(); <-done }()
				logits[i], errs[i] = bc.Infer(context.Background(), conn, img)
			}(i, img)
		}
		wg.Wait()
		for i, want := range [][]float64{w1, w2} {
			if errs[i] != nil {
				t.Fatalf("%s: client %d: %v", label, i, errs[i])
			}
			for j := range want {
				if math.Abs(logits[i][j]-want[j]) > 1e-2 {
					t.Fatalf("%s: client %d logit %d: %g vs %g", label, i, j, logits[i][j], want[j])
				}
			}
		}
	}

	// Wave 1: coalescing poisoned — both clients recover via degradation.
	runPair("degraded wave", want1, want2)
	snap := reg.Snapshot()
	if got := counterValue(t, snap, MetricBatchDegraded); got != 2 {
		t.Fatalf("%s = %d after degraded wave, want 2", MetricBatchDegraded, got)
	}
	if g := snap.Family(MetricBatchBreaker).Metric(); g == nil || g.Value != float64(breakerOpen) {
		t.Fatalf("%s = %v after degraded wave, want open (%d)", MetricBatchBreaker, g, breakerOpen)
	}

	// Wave 2: past the cooldown with the fault cleared, the half-open probe
	// batch coalesces successfully and closes the breaker. No new degraded
	// members.
	failCoalesced.Store(false)
	time.Sleep(50 * time.Millisecond)
	runPair("recovery wave", want1, want2)
	snap = reg.Snapshot()
	if got := counterValue(t, snap, MetricBatchDegraded); got != 2 {
		t.Fatalf("%s = %d after recovery, want still 2", MetricBatchDegraded, got)
	}
	if g := snap.Family(MetricBatchBreaker).Metric(); g == nil || g.Value != float64(breakerClosed) {
		t.Fatalf("%s = %v after recovery, want closed (%d)", MetricBatchBreaker, g, breakerClosed)
	}
}

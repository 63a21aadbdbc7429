package mlaas

// Chaos schedule for the batch degradation ladder: the coalesced
// evaluation fails on alternating flushes and every batched request must
// still decrypt correct logits. The replica schedules — corruption,
// resets, slow drips, killed and recovering replicas — run against a
// gateway-fronted pair in internal/gateway. Each test logs one
// outcome-table row; the nightly chaos job runs both packages with -race
// and FXHENN_HAMMER_ITERS and archives the output.

import (
	"context"
	"errors"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fxhenn/internal/hecnn"
	"fxhenn/internal/telemetry"
)

// chaosIters scales the per-schedule iteration count: 2 in the tier-1
// suite, FXHENN_HAMMER_ITERS times that in the nightly hammer.
func chaosIters() int { return 2 * hammerScale() }

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

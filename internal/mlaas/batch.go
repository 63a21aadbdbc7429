package mlaas

// Cross-request batched serving: the scheduler that coalesces concurrent
// batched Infer requests into one position-major hecnn.BatchedNetwork
// evaluation. Each waiting request ("member") ships its image as one
// single-slot ciphertext per tensor position under the batch ring; a
// flush rotates member b's ciphertexts into slot b, sums them per
// position (hecnn.CombineBatch — free at occupancy 1, where the combine
// is skipped and the flush degenerates to the per-request path), runs the
// batched network once, and hands every member the shared logit
// ciphertexts plus its private slot index. The member decrypts only its
// own slot; the server never holds a secret key on either ring.
//
// Flush rules (DESIGN.md §12): a flush fires when the batch is full
// (occupancy reaches BatchConfig.Size), when the oldest member has waited
// BatchConfig.Window, when waiting any longer would breach the earliest
// member deadline (deadline pressure), or when the server starts
// draining. The single scheduler goroutine recomputes the next flush
// instant after every submission, so the rules compose without races.
//
// Fairness and cancellation: members are claimed with an atomic
// compare-and-swap — a member whose handler timed out flips the same flag
// the flush does, so exactly one side owns it. A cancelled member is
// skipped by the next flush without stalling it; a flushed member's
// result is delivered on a buffered channel, so a handler that gave up
// never blocks the flush either.

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"fxhenn/internal/ckks"
	"fxhenn/internal/hecnn"
	"fxhenn/internal/telemetry"
)

// BatchConfig enables cross-request batched serving. The batch path runs
// on its own CKKS instantiation (typically hecnn.BatchedParams: the same
// modulus chain on the smallest ring whose slots cover the batch
// capacity) with its own published evaluation keys — the rotation keys
// must cover hecnn.BatchRotations(Size).
type BatchConfig struct {
	// Params is the batch-ring CKKS parameter set.
	Params ckks.Parameters
	// Net is the batched compilation of the served network.
	Net *hecnn.BatchedNetwork
	// Rlk/Rtk are the client-published evaluation keys on the batch ring.
	Rlk *ckks.RelinearizationKey
	Rtk *ckks.RotationKeys
	// Size is the flush occupancy (≤ Net.Slots and the rotation-key
	// coverage). Default min(8, Net.Slots).
	Size int
	// Window is how long the oldest member may wait for co-travellers
	// before the batch flushes anyway. Default 20ms.
	Window time.Duration
	// Breaker configures the circuit breaker on the coalesced evaluation
	// path (the degradation ladder: while it refuses, members evaluate
	// individually instead of coalescing; a half-open probe batch tests
	// recovery). The default threshold here is 1, not BreakerConfig's 3 —
	// one failed flush already cost every coalesced member a round trip.
	Breaker BreakerConfig
}

func (bc BatchConfig) withDefaults() BatchConfig {
	if bc.Breaker.Threshold <= 0 {
		bc.Breaker.Threshold = 1
	}
	if bc.Size <= 0 {
		bc.Size = 8
	}
	if bc.Net != nil && bc.Size > bc.Net.Slots {
		bc.Size = bc.Net.Slots
	}
	if bc.Window <= 0 {
		bc.Window = 20 * time.Millisecond
	}
	return bc
}

// flushReason labels why a batch was flushed, for the flush counter.
type flushReason int

const (
	flushFull flushReason = iota
	flushWindow
	flushDeadline
	flushDrain
	numFlushReasons
)

func (r flushReason) String() string {
	return [...]string{"full", "window", "deadline", "drain"}[r]
}

// batchOutcome is what a flush delivers to one member.
type batchOutcome struct {
	outs []*hecnn.CT // shared logit ciphertexts of the whole batch
	slot int         // this member's slot in every logit ciphertext
	err  *wireError  // terminal failure instead
	// flush is the batch-flush span's context, so the member's own request
	// trace can link the shared flush trace (and vice versa — the flush
	// span links every member's wire context).
	flush telemetry.SpanContext
	// degraded marks members that were recovered through the per-member
	// degraded path instead of the coalesced evaluation.
	degraded bool
}

// batchMember is one waiting request.
type batchMember struct {
	arrival  time.Time
	deadline time.Time
	cts      []*hecnn.CT
	// wt is the member's wire trace context (zero when the request was
	// untraced); the flush span follows-from every member it coalesces.
	wt telemetry.SpanContext
	// claimed is the single ownership bit: the flush that evaluates the
	// member and the handler that abandons it race on one CAS, so exactly
	// one side wins. A flush finding the bit set skips the member.
	claimed atomic.Bool
	// result is buffered so the flush never blocks delivering to a
	// handler that already gave up.
	result chan batchOutcome
}

// batcher is the cross-request batch scheduler. One goroutine (run) owns
// all flush decisions; submit only appends and wakes it.
type batcher struct {
	net    *hecnn.BatchedNetwork
	cb     *hecnn.CompiledBatched
	ctx    *hecnn.Context
	size   int
	window time.Duration
	adm    *admitter
	met    *serverMetrics
	// brk gates the coalesced evaluation path: while open, flushes skip
	// coalescing and run every member through the degraded per-member
	// path; a half-open probe batch tests recovery.
	brk *Breaker
	// flight, when attached, records one "batch-flush" trace per flush,
	// linked follow-from to every member's wire trace context.
	flight *telemetry.FlightRecorder

	mu       sync.Mutex
	pending  []*batchMember
	draining bool
	stopped  bool

	wake  chan struct{}
	stopc chan struct{}
	done  chan struct{}

	// evalEst is a running estimate (ns) of one batched evaluation, fed by
	// observed flush durations. Deadline pressure fires 2× the estimate
	// before the earliest member deadline so the evaluation and the
	// response writes still fit inside the member's budget.
	evalEst atomic.Int64

	// evalHook, when set, replaces the HE evaluation — the scheduler unit
	// tests inject it to exercise flush logic without ring arithmetic.
	evalHook func(members [][]*hecnn.CT) ([]*hecnn.CT, error)
}

func newBatcher(bc BatchConfig, ctx *hecnn.Context, cb *hecnn.CompiledBatched, adm *admitter, met *serverMetrics) *batcher {
	b := &batcher{
		net:    bc.Net,
		cb:     cb,
		ctx:    ctx,
		size:   bc.Size,
		window: bc.Window,
		adm:    adm,
		met:    met,
		brk:    NewBreaker(bc.Breaker),
		wake:   make(chan struct{}, 1),
		stopc:  make(chan struct{}),
		done:   make(chan struct{}),
	}
	b.evalEst.Store(int64(500 * time.Millisecond))
	return b
}

// submit parks a member in the pending batch and wakes the scheduler.
// It fails only once the batcher has stopped accepting (server shutdown).
func (b *batcher) submit(m *batchMember) *wireError {
	b.mu.Lock()
	if b.stopped {
		b.mu.Unlock()
		return &wireError{StatusShuttingDown, "batch scheduler stopped"}
	}
	b.pending = append(b.pending, m)
	b.mu.Unlock()
	select {
	case b.wake <- struct{}{}:
	default:
	}
	return nil
}

// await parks one member in the scheduler and waits for the flush that
// evaluates it. A member whose deadline passes while parked claims itself
// away from the next flush and is refused with StatusBusy, never
// stalling the batch.
func (b *batcher) await(deadline time.Time, rt *reqTrace, cts []*hecnn.CT) (batchOutcome, error) {
	m := &batchMember{
		arrival:  time.Now(),
		deadline: deadline,
		cts:      cts,
		result:   make(chan batchOutcome, 1),
	}
	if rt != nil {
		// The flush span links every member's trace as a follow-from.
		m.wt = rt.wt
	}
	if we := b.submit(m); we != nil {
		return batchOutcome{}, we
	}
	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	select {
	case out := <-m.result:
		return out, nil
	case <-timer.C:
		if m.claimed.CompareAndSwap(false, true) {
			// Still parked: withdraw before any flush claims it.
			return batchOutcome{}, &wireError{StatusBusy, "request budget expired waiting for a batch"}
		}
		// A flush owns this member; its result is imminent.
		return <-m.result, nil
	}
}

// drain makes the scheduler flush pending members immediately (and any
// late submissions from requests already past the admission check), for
// graceful shutdown.
func (b *batcher) drain() {
	b.mu.Lock()
	b.draining = true
	b.mu.Unlock()
	select {
	case b.wake <- struct{}{}:
	default:
	}
}

// stop halts the scheduler; members still pending are failed with
// StatusShuttingDown (forced shutdown — graceful paths drain first).
func (b *batcher) stop() {
	b.mu.Lock()
	if b.stopped {
		b.mu.Unlock()
		<-b.done
		return
	}
	b.stopped = true
	b.mu.Unlock()
	close(b.stopc)
	<-b.done
}

// next computes the scheduler's next action from the pending state:
// whether to flush now (and why), or how long to sleep until the next
// rule would fire. Called with b.mu held.
func (b *batcher) nextLocked(now time.Time) (fire bool, reason flushReason, wait time.Duration) {
	if len(b.pending) == 0 {
		return false, 0, 0
	}
	if b.draining {
		return true, flushDrain, 0
	}
	if len(b.pending) >= b.size {
		return true, flushFull, 0
	}
	windowAt := b.pending[0].arrival.Add(b.window)
	flushAt, reason := windowAt, flushWindow
	margin := 2 * time.Duration(b.evalEst.Load())
	for _, m := range b.pending {
		// Deadline pressure: flush early enough that the evaluation (plus
		// response headroom — hence 2× the running estimate) still fits
		// inside the member's remaining budget.
		if at := m.deadline.Add(-margin); at.Before(flushAt) {
			flushAt, reason = at, flushDeadline
		}
	}
	if !flushAt.After(now) {
		return true, reason, 0
	}
	return false, 0, flushAt.Sub(now)
}

// run is the scheduler loop: one goroutine owning every flush.
func (b *batcher) run() {
	defer close(b.done)
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	defer timer.Stop()
	for {
		b.mu.Lock()
		fire, reason, wait := b.nextLocked(time.Now())
		b.mu.Unlock()
		if fire {
			b.flush(reason)
			continue
		}
		var timerC <-chan time.Time
		if wait > 0 {
			timer.Reset(wait)
			timerC = timer.C
		}
		select {
		case <-b.wake:
			if timerC != nil && !timer.Stop() {
				<-timer.C
			}
		case <-timerC:
		case <-b.stopc:
			if timerC != nil && !timer.Stop() {
				<-timer.C
			}
			b.failPending(&wireError{StatusShuttingDown, "server is shutting down"})
			return
		}
	}
}

// flush takes up to size members off the pending batch, claims them,
// acquires one evaluation slot, runs the batched evaluation, and delivers
// each member its slot in the shared logit ciphertexts.
func (b *batcher) flush(reason flushReason) {
	b.mu.Lock()
	n := len(b.pending)
	if n > b.size {
		n = b.size
	}
	batch := b.pending[:n:n]
	b.pending = append([]*batchMember(nil), b.pending[n:]...)
	b.mu.Unlock()

	// Claim each member; handlers that already timed out flipped the bit
	// first and are skipped — a cancelled member never stalls a flush.
	members := batch[:0]
	for _, m := range batch {
		if m.claimed.CompareAndSwap(false, true) {
			members = append(members, m)
		}
	}
	if len(members) == 0 {
		return
	}
	b.met.observeBatch(len(members), reason)

	// The flush trace is its own root — a flush has no single parent
	// request — linked follow-from to every member's wire context, and each
	// member's request trace links back via the outcome's flush context.
	var fsp *telemetry.Span
	var fctx telemetry.SpanContext
	if b.flight != nil {
		fsp = telemetry.StartTrace("batch-flush")
		fsp.SetAttr("reason", reason.String())
		fsp.SetAttr("occupancy", strconv.Itoa(len(members)))
		for _, m := range members {
			fsp.AddLink(m.wt)
		}
		fctx = fsp.Context()
	}

	// The flush occupies ONE evaluation slot regardless of occupancy —
	// that is the whole throughput story. The wait is bounded by the
	// earliest member deadline; members whose budget expires while the
	// flush queues are refused together.
	earliest := members[0].deadline
	for _, m := range members[1:] {
		if m.deadline.Before(earliest) {
			earliest = m.deadline
		}
	}
	if _, decision := b.adm.acquire(earliest); decision != admitOK {
		msg := "no evaluation slot before batch deadline"
		if decision == admitQueueFull {
			msg = "server at capacity"
		}
		for _, m := range members {
			m.result <- batchOutcome{err: &wireError{StatusBusy, msg}, flush: fctx}
		}
		if fsp != nil {
			fsp.SetAttr("error", msg)
			fsp.End()
			b.flight.Record(fsp, "error")
		}
		return
	}
	defer b.adm.release()

	cts := make([][]*hecnn.CT, len(members))
	for i, m := range members {
		cts[i] = m.cts
	}
	// The degradation ladder: coalesced evaluation while the breaker
	// admits it (a half-open probe batch tests recovery), otherwise — and
	// after any coalesced failure — every member re-runs individually.
	// Coalescing is an optimization; its failure must cost amortization,
	// not answers.
	if b.brk.Allow() {
		evalStart := time.Now()
		outs, err := b.evalMembers(cts)
		// Feed the deadline-pressure estimate: jump straight up on an
		// underestimate, decay gently (¾ old + ¼ observed) on an
		// overestimate. Only true coalesced evaluations feed it — degraded
		// per-member timings would poison the batch-shaped estimate.
		if obs := int64(time.Since(evalStart)); obs > b.evalEst.Load() {
			b.evalEst.Store(obs)
		} else {
			b.evalEst.Store((3*b.evalEst.Load() + obs) / 4)
		}
		if err == nil {
			b.brk.OnSuccess()
			b.met.setBatchBreaker(b.brk.State())
			if fsp != nil {
				fsp.End()
				b.flight.Record(fsp)
			}
			for i, m := range members {
				m.result <- batchOutcome{outs: outs, slot: i, flush: fctx}
			}
			return
		}
		b.brk.OnFailure()
		if fsp != nil {
			fsp.SetAttr("error", err.Error())
		}
	}
	b.met.setBatchBreaker(b.brk.State())
	b.degrade(members, fctx)
	if fsp != nil {
		fsp.SetAttr("degraded", "true")
		fsp.End()
		b.flight.Record(fsp, "degraded")
	}
}

// evalMembers runs one batched evaluation with panic isolation: a panic
// deep in the HE pipeline (or an injected test hook) surfaces as an error
// instead of killing the scheduler goroutine — the pre-breaker behaviour
// was a process-fatal panic on exactly this path.
func (b *batcher) evalMembers(cts [][]*hecnn.CT) (outs []*hecnn.CT, err error) {
	defer func() {
		if r := recover(); r != nil {
			outs, err = nil, fmt.Errorf("evaluation panic: %v", r)
		}
	}()
	if b.evalHook != nil {
		return b.evalHook(cts)
	}
	outs, _, err = b.cb.EvaluateBatch(b.ctx, cts)
	return outs, err
}

// degrade recovers a batch whose coalesced evaluation failed or whose
// breaker is refusing coalescing: each claimed member re-runs through an
// occupancy-1 evaluation on the same batch ring (zero combine rotations —
// hecnn's per-request degenerate case), so one poisoned member or a bug
// in the combine path fails at most its own request. Members whose budget
// already expired are refused with StatusBusy instead of being evaluated
// dead — their handler gave up waiting and nobody will read the logits.
// Each recovery is counted before its member hears of it.
func (b *batcher) degrade(members []*batchMember, fctx telemetry.SpanContext) {
	for _, m := range members {
		if !time.Now().Before(m.deadline) {
			m.result <- batchOutcome{err: &wireError{StatusBusy, "request budget expired during degraded batch recovery"}, flush: fctx, degraded: true}
			continue
		}
		outs, err := b.evalMembers([][]*hecnn.CT{m.cts})
		if err != nil {
			m.result <- batchOutcome{err: &wireError{StatusInternal, fmt.Sprintf("degraded evaluation: %v", err)}, flush: fctx, degraded: true}
			continue
		}
		b.met.observeDegraded()
		m.result <- batchOutcome{outs: outs, slot: 0, flush: fctx, degraded: true}
	}
}

// failPending delivers we to every still-unclaimed pending member.
func (b *batcher) failPending(we *wireError) {
	b.mu.Lock()
	pending := b.pending
	b.pending = nil
	b.mu.Unlock()
	for _, m := range pending {
		if m.claimed.CompareAndSwap(false, true) {
			m.result <- batchOutcome{err: we}
		}
	}
}

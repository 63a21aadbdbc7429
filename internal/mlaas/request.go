package mlaas

// The request lifecycle, one pipeline for every framing and tenant:
// admit → header → resolve tenant → read ciphertexts → validate →
// evaluate (directly, or parked in the batch scheduler) → account →
// respond.

import (
	"errors"
	"fmt"
	"io"
	"time"

	"fxhenn/internal/ckks"
	"fxhenn/internal/hecnn"
)

// After a failure response the peer may still be mid-request; the server
// keeps reading (and discarding) up to drainWindow/maxDrainBytes so the
// peer can finish its write and read the typed status instead of taking
// a connection reset. Purely politeness — both bounds are hard.
const (
	drainWindow   = time.Second
	maxDrainBytes = 8 << 20
)

// Handle processes one request/response exchange on rw: admission
// (drain check, then the concurrency semaphore), deadline-bounded
// protocol I/O, validation, panic-isolated evaluation, and a typed
// status on every failure path, followed by a bounded politeness drain
// of any unread request bytes.
func (s *Server) Handle(rw io.ReadWriter) {
	if !s.handleRequest(rw) {
		return
	}
	d, ok := rw.(deadliner)
	if !ok {
		return // cannot bound the drain; skip it
	}
	d.SetReadDeadline(time.Now().Add(drainWindow)) //nolint:errcheck
	io.CopyN(io.Discard, rw, maxDrainBytes)        //nolint:errcheck
}

// handleRequest runs the exchange and reports whether unread request
// bytes may remain on the wire (i.e. the request was refused or failed).
// Every exchange — including refusals — is tagged with a monotonically
// increasing request id that prefixes failure messages and keys the
// slow-request log. Every path accounts for the request before writing
// its response, so a client that has read its response never sees stats
// or telemetry that miss it.
func (s *Server) handleRequest(rw io.ReadWriter) (drain bool) {
	reqID := s.reqSeq.Add(1)
	var rt *reqTrace
	if s.observes() {
		rt = &reqTrace{id: reqID, start: time.Now()}
	}
	trw := newTimedRW(rw, s.cfg.IOTimeout, time.Time{})

	s.mu.Lock()
	if s.draining {
		s.stats.Rejected++
		s.mu.Unlock()
		s.outcome(rt, StatusShuttingDown)
		WriteFailure(trw, StatusShuttingDown, fmt.Sprintf("req %d: server is shutting down", reqID))
		return true
	}
	s.inflight++
	s.mu.Unlock()
	s.met.inflightAdd(1)
	defer func() {
		s.mu.Lock()
		s.inflight--
		if s.draining && s.inflight == 0 {
			s.closeDrained()
		}
		s.mu.Unlock()
	}()

	// The request budget starts at arrival: time spent waiting in the
	// admission queue is the client's time too.
	deadline := time.Now().Add(s.cfg.RequestBudget)
	if s.shed != nil {
		// Deadline-aware shedding: refuse now — with a hint — rather than
		// let a request wait out a budget its projected completion already
		// misses. The projection needs latency evidence, so a cold server
		// never sheds.
		busy, queued := s.adm.load()
		if hint, ok := s.shed.shouldAdmit(time.Now(), deadline, busy, queued); !ok {
			s.mu.Lock()
			s.stats.Rejected++
			s.mu.Unlock()
			s.met.observeShed()
			rt.markShed()
			s.settle(rt, StatusBusy)
			msg := fmt.Sprintf("req %d: shed: projected completion exceeds the request budget (%d busy, %d queued)",
				reqID, busy, queued)
			WriteFailure(trw, StatusBusy, withRetryAfterHint(msg, hint))
			return true
		}
	}
	wait, decision := s.adm.acquire(deadline)
	if decision != admitOK {
		s.mu.Lock()
		s.stats.Rejected++
		s.mu.Unlock()
		s.settle(rt, StatusBusy)
		msg := fmt.Sprintf("req %d: server at capacity (%d concurrent, %d queued)",
			reqID, s.cfg.MaxConcurrent, s.adm.queued())
		if decision == admitDeadline {
			msg = fmt.Sprintf("req %d: request budget exhausted after %v in the admission queue", reqID, wait.Round(time.Millisecond))
		}
		if s.shed != nil {
			// With shedding on, every busy refusal carries a hint; the
			// default configuration keeps these messages byte-identical to
			// the pre-hint wire traffic.
			busy, queued := s.adm.load()
			msg = withRetryAfterHint(msg, s.shed.retryAfter(busy, queued))
		}
		WriteFailure(trw, StatusBusy, msg)
		return true
	}
	rt.timePhase(phaseQueue, wait)
	// The batched path hands its slot back while the request parks in the
	// batch (the flush re-acquires one slot for the whole batch), so the
	// release must be idempotent.
	slotHeld := true
	releaseSlot := func() {
		if slotHeld {
			slotHeld = false
			s.adm.release()
		}
	}
	defer releaseSlot()

	trw.abs = deadline
	resp, err := s.serveRequest(trw, rt, releaseSlot)
	if err == nil {
		s.mu.Lock()
		s.stats.Served++
		s.mu.Unlock()
		s.settle(rt, StatusOK)
		trw.Write(resp) //nolint:errcheck // client gone; nothing to report
		return false
	}
	var we *wireError
	if !errors.As(err, &we) {
		// Protocol and transport failures before classification are bad
		// requests — if the peer is gone the write just fails silently.
		we = &wireError{StatusBadRequest, err.Error()}
	}
	s.mu.Lock()
	switch we.status {
	case StatusInternal:
		s.stats.Panics++
	default:
		s.stats.BadRequests++
	}
	s.mu.Unlock()
	s.settle(rt, we.status)
	// The failure report gets one fresh I/O window even when the request
	// died by exhausting its budget.
	trw.abs = time.Now().Add(s.cfg.IOTimeout)
	WriteFailure(trw, we.status, fmt.Sprintf("req %d: %s", reqID, we.msg))
	return true
}

// settle accounts for an admitted request — the in-flight gauge and the
// outcome — ahead of its response.
func (s *Server) settle(rt *reqTrace, st Status) {
	s.met.inflightAdd(-1)
	s.outcome(rt, st)
}

// serveRequest runs one admitted exchange up to its serialized success
// response, timing each lifecycle phase into rt (nil rt skips all
// timing). The encode phase times serialization only: the caller
// accounts for the request before writing the response. Any panic below
// it — corrupt ciphertext structure surviving validation, scale drift in
// the evaluator, a bug in a layer kernel — is confined to this request
// and surfaced as StatusInternal.
func (s *Server) serveRequest(rw *timedRW, rt *reqTrace, releaseSlot func()) (resp []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &wireError{StatusInternal, fmt.Sprintf("evaluation panic: %v", r)}
		}
	}()

	// A routed request swaps the serving runtime from the default to the
	// tenant's own: parameters, keys, compiled network, quota and batch
	// domain.
	run, quota := s.def, false
	h, err := readHeader(rw, func(h *header) (bool, error) {
		if !h.route.IsZero() {
			var we *wireError
			if run, we = s.resolveTenant(h.route); we != nil {
				return false, we
			}
			rt.setTenant(h.route.Tenant)
			if quota = run.acquireQuota(); !quota {
				return false, &wireError{StatusBusy, fmt.Sprintf("tenant %q at its admission quota (%d concurrent)", h.route.Tenant, cap(run.quota))}
			}
		}
		return run.bat != nil, nil
	})
	if quota {
		defer run.releaseQuota()
	}
	rt.setWire(h.trace)
	if err != nil {
		return nil, err
	}
	// Decode starts once the header is in: until then the server only
	// waits for a client that may still be encrypting.
	phaseStart := time.Now()

	params, want, kind := run.ctx.Params, run.net.Layers[0].(*hecnn.ConvPacked).NumPositions(), "packed"
	if h.batch {
		params, want, kind = run.bat.ctx.Params, run.bat.net.InputSize(), "position-major"
	}
	if int(h.count) != want {
		return nil, &wireError{StatusBadRequest, fmt.Sprintf("expected %d %s ciphertexts, got %d", want, kind, h.count)}
	}
	cts := make([]*hecnn.CT, want)
	var row []byte // one row's bytes, shared by every ciphertext
	for i := range cts {
		ct, err := ckks.ReadCiphertextBuf(rw, params, &row)
		if err != nil {
			return nil, &wireError{StatusBadRequest, fmt.Sprintf("reading ciphertext %d: %v", i, err)}
		}
		cts[i] = hecnn.WrapCiphertext(ct)
	}
	phaseStart = rt.endPhase(phaseDecode, phaseStart)
	if h.batch {
		err = run.bat.net.ValidateBatchCiphertexts(cts, params.MaxLevel())
	} else {
		err = run.net.ValidateCiphertexts(cts, params.MaxLevel())
	}
	if err != nil {
		return nil, &wireError{StatusBadRequest, err.Error()}
	}
	phaseStart = rt.endPhase(phaseValidate, phaseStart)

	if s.testEvalHook != nil {
		s.testEvalHook()
	}
	var out batchOutcome
	if h.batch {
		// Park without holding an evaluation slot: the flush acquires one
		// for the whole batch.
		releaseSlot()
		if out, err = run.bat.await(rw.abs, rt, cts); err != nil {
			return nil, err
		}
	} else {
		out.outs = []*hecnn.CT{s.evaluate(run, rt, cts)}
	}
	phaseStart = rt.endPhase(phaseEvaluate, phaseStart)
	if rt != nil {
		// A batch member's request trace links forward to the flush trace
		// that evaluated it (and remembers whether it took the degraded
		// path).
		rt.flushCtx, rt.degraded = out.flush, out.degraded
	}
	if out.err != nil {
		return nil, out.err
	}

	logits := response{slot: out.slot, cts: make([]*ckks.Ciphertext, len(out.outs))}
	for i, ct := range out.outs {
		logits.cts[i] = ct.Ciphertext()
	}
	resp = encodeResponse(h, logits)
	rt.timePhase(phaseEncode, time.Since(phaseStart))
	return resp, nil
}

// evaluate runs the per-request HE-CNN on one runtime. The request's
// decoded inputs are the evaluation's to consume (EvaluateOwned): their
// rows refill the evaluation's list after their last use. Traced requests
// get a tracer, so the per-layer table in the slow-request log and the
// layer metric families carry this inference's layer wall times next to
// the op counts of the network's program.
func (s *Server) evaluate(run *tenantRuntime, rt *reqTrace, cts []*hecnn.CT) *hecnn.CT {
	start := time.Now()
	var tr *hecnn.Tracer
	if rt != nil {
		tr = &hecnn.Tracer{}
		if run.layers != nil {
			tr.Sink = run.layers.observe
		}
	}
	out := run.net.EvaluateOwned(run.backend(), cts, tr)
	if rt != nil {
		rt.layers = tr.Stats
	}
	if s.shed != nil {
		s.shed.observe(time.Since(start))
		s.met.setEvalEWMA(s.shed.estimate())
	}
	return out
}

// Package mlaas implements the machine-learning-as-a-service deployment of
// §I over a real transport: the client packs and encrypts its image locally
// and ships ciphertexts to the server; the server — holding only the model
// weights and the public evaluation keys, never the secret key — evaluates
// the HE-CNN homomorphically and returns the encrypted logits; only the
// client can decrypt. The wire volume it reports is the concrete form of
// the paper's "5-6 orders of magnitude" ciphertext expansion.
//
// Protocol (all little-endian, length-delimited):
//
//	request:  uint32 ciphertext count, then that many serialized ciphertexts
//	response: status byte (see Status), then one ciphertext (StatusOK) or a
//	          uint32-length error string (any other status)
//
// Batched requests (Config.Batch, PR5) reuse the same framing with a
// sentinel first word: a uint32 batch magic — chosen above
// maxRequestCiphertexts so servers without batching reject it as a bad
// count — then the real uint32 ciphertext count and that many
// position-major ciphertexts under the batch-ring parameters (one
// single-slot ciphertext per tensor position, the image's value in slot
// 0). The batched success response is the status byte, a uint32 slot
// index, a uint32 logit-ciphertext count, and the shared logit
// ciphertexts; the client decrypts only its own slot. Failure responses
// are identical in both framings.
//
// The serving layer is production-shaped: per-connection I/O deadlines and
// a total request budget, admission scheduling (MaxConcurrent evaluation
// slots fronted by an optional bounded FIFO queue — Config.QueueDepth —
// where requests wait out bursts up to their budget before StatusBusy;
// the default remains fail-fast), per-request panic isolation (a malformed ciphertext
// that blows up deep in the evaluator kills one request, not the
// process), typed wire statuses, and Shutdown(ctx) that drains in-flight
// inferences while refusing new ones with StatusShuttingDown. The client
// side mirrors it: Infer honors a context, and InferRetry adds capped
// exponential backoff with deterministic jitter for retryable failures.
// internal/faultnet drives every one of these paths in the test suite.
//
// Evaluation parallelism: the server owns one shared worker pool
// (Config.Workers) attached to the parameters' ring. Concurrent requests
// and each request's internal limb/digit/rotation fan-out draw from that
// single budget with non-blocking, work-conserving dispatch, and parallel
// evaluation is bit-exact with serial — responses never depend on the
// worker count.
package mlaas

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"fxhenn/internal/ckks"
	"fxhenn/internal/cnn"
	"fxhenn/internal/hecnn"
	"fxhenn/internal/parallel"
	"fxhenn/internal/registry"
	"fxhenn/internal/telemetry"
)

// maxRequestCiphertexts bounds a request so a malicious client cannot force
// unbounded allocation.
const maxRequestCiphertexts = 4096

// batchMagic is the first word of a batched request ("BTCH"). It is far
// above maxRequestCiphertexts, so a server without batching enabled —
// or an old server predating the batched framing — rejects it as a
// hostile ciphertext count instead of misparsing the request.
const batchMagic uint32 = 0x42544348

// maxErrorMessageBytes caps the error string on the wire in both
// directions: the server truncates before writing, the client refuses to
// read more.
const maxErrorMessageBytes = 64 << 10

// ErrServerClosed is returned by Serve after Shutdown stops the listener.
var ErrServerClosed = errors.New("mlaas: server closed")

// Config bounds a Server's resource usage. The zero value takes every
// default.
type Config struct {
	// MaxConcurrent caps simultaneous evaluations; requests beyond it are
	// refused immediately with StatusBusy. Default 4.
	MaxConcurrent int
	// QueueDepth bounds the admission queue in front of the evaluation
	// slots. 0 (the default) keeps the fail-fast behaviour: any request
	// beyond MaxConcurrent is refused immediately with StatusBusy. With a
	// queue, up to QueueDepth requests wait for a slot — in arrival order,
	// up to their RequestBudget — before being refused; the wait is
	// reported in the queue phase histogram, MetricQueueWait, and counted
	// against the request's budget.
	QueueDepth int
	// CacheBytes bounds the server's encoded-plaintext cache (the
	// hecnn.CompiledNetwork behind steady-state zero-encode inference).
	// 0 (the default) auto-sizes from the compiled operand set
	// (hecnn.AutoPlaintextCacheBytes): the stock default when the warm
	// set fits it, the measured set plus headroom when it doesn't — BSGS
	// networks outgrow the fixed default and would thrash. A negative
	// value disables the cache entirely and every request re-encodes its
	// weight plaintexts, as before PR4.
	CacheBytes int64
	// IOTimeout is the rolling per-read/per-write deadline on a
	// connection. Default 30s.
	IOTimeout time.Duration
	// RequestBudget is the absolute wall-clock budget for one exchange,
	// admission to final byte. Default 2m.
	RequestBudget time.Duration
	// Workers sizes the shared evaluation worker pool attached to the
	// parameters' ring: 0 (the default) uses GOMAXPROCS workers, 1 forces
	// fully serial evaluation, n > 1 uses exactly n. All concurrent
	// requests draw from this one pool, so intra-request (limb/digit/
	// rotation) and inter-request parallelism share a single budget: pool
	// dispatch is non-blocking and a request whose fan-out finds every
	// worker busy simply computes on its own goroutine, which keeps
	// scheduling fair and work-conserving under load. Parallel evaluation
	// is bit-exact with serial evaluation.
	Workers int

	// ShedEWMA enables deadline-aware load shedding (shed.go): the value
	// is the smoothing factor α ∈ (0,1] of an EWMA over observed
	// evaluation latency, and a request whose projected completion (load
	// ahead × EWMA ÷ slots, plus its own evaluation) already misses its
	// budget is refused at the door with StatusBusy and a retry-after
	// hint instead of timing out in the queue. 0 (the default) disables
	// shedding and keeps busy messages hint-free.
	ShedEWMA float64

	// Batch, when non-nil, enables cross-request batched serving: batched
	// requests park in a scheduler that coalesces them into one
	// position-major BatchedNetwork evaluation per flush (see batch.go).
	// Per-request LoLa traffic is unaffected.
	Batch *BatchConfig

	// Registry, when non-nil, enables multi-tenant serving (tenant.go):
	// requests carrying a routing frame (route.go) resolve through it to
	// a per-tenant runtime — parameters, keys, compiled network, quota,
	// batch domain — materialized by Models and cached keyed by the
	// record's generation. Unrouted requests keep using the server's own
	// single-tenant network, so a multi-tenant server still serves legacy
	// clients. Requires Models.
	Registry *registry.Registry
	// Models materializes a registry record into serving material; see
	// ModelBuilder. Required when Registry is set.
	Models ModelBuilder

	// Metrics, when non-nil, receives the server's telemetry: request
	// counters by status, phase/request latency histograms, the in-flight
	// gauge, and per-layer evaluate breakdowns (see the Metric* names in
	// telemetry.go). Nil disables metrics with zero added work on the
	// request path.
	Metrics *telemetry.Registry
	// Flight, when non-nil, receives the server's tail-sampled request
	// traces: every error/slow/shed/degraded request is kept, healthy
	// traffic is sampled, and each kept trace carries the full
	// queue/decode/validate/evaluate/encode span tree (per-layer spans
	// included) under the client's wire-propagated trace ID. Nil disables
	// tracing with zero added work — and unchanged wire bytes — on the
	// request path.
	Flight *telemetry.FlightRecorder
	// SlowRequestThreshold gates the slow-request log: an exchange whose
	// total time reaches it is logged with its per-phase and per-layer
	// span breakdown. Zero disables the log.
	SlowRequestThreshold time.Duration
	// SlowRequestLog receives slow-request lines. Defaults to os.Stderr
	// when SlowRequestThreshold is set.
	SlowRequestLog io.Writer
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 4
	}
	if c.IOTimeout <= 0 {
		c.IOTimeout = 30 * time.Second
	}
	if c.RequestBudget <= 0 {
		c.RequestBudget = 2 * time.Minute
	}
	if c.SlowRequestThreshold > 0 && c.SlowRequestLog == nil {
		c.SlowRequestLog = os.Stderr
	}
	return c
}

// Stats is a snapshot of a Server's request counters.
type Stats struct {
	Served      int // completed inferences
	BadRequests int // protocol or data errors reported to clients
	Rejected    int // refused with StatusBusy or StatusShuttingDown
	Panics      int // evaluation panics recovered into StatusInternal
	Dropped     int // in-flight requests cut off by a forced shutdown
}

// Server evaluates encrypted inferences. It holds the compiled network,
// the model weights (inside the network), and the evaluation keys — but no
// secret key.
type Server struct {
	params ckks.Parameters
	net    *hecnn.Network
	ctx    *hecnn.Context
	cfg    Config
	adm    *admitter
	shed   *shedder // nil unless Config.ShedEWMA > 0
	pool   *parallel.Pool
	// compiled is the warmed serve-path cache of encoded weight
	// plaintexts; nil when Config.CacheBytes < 0, in which case every
	// request re-encodes through a plain crypto backend.
	compiled *hecnn.CompiledNetwork
	// Batched serving (nil unless Config.Batch is set): the batch-ring
	// evaluation context and the scheduler coalescing batched requests.
	bparams ckks.Parameters
	bat     *batcher
	// Multi-tenant serving (nil unless Config.Registry is set): routed
	// requests resolve through the registry to per-tenant runtimes. defRT
	// is the single-tenant default runtime every unrouted request uses.
	tenants *tenantSet
	defRT   *tenantRuntime

	// met is nil when Config.Metrics is nil; reqSeq tags every exchange
	// with a monotonically increasing id that appears in failure messages
	// and the slow-request log, correlating client-observed errors with
	// server telemetry.
	met     *serverMetrics
	flight  *telemetry.FlightRecorder
	reqSeq  atomic.Uint64
	slowMu  sync.Mutex
	slowLog io.Writer

	mu        sync.Mutex
	stats     Stats
	inflight  int
	draining  bool
	listeners map[net.Listener]struct{}
	conns     map[net.Conn]struct{}
	drained   chan struct{}
	drainOnce sync.Once

	// testEvalHook, when set, runs after request validation and before
	// evaluation — the seam the fault suite uses to force deep panics and
	// slow requests deterministically.
	testEvalHook func()
}

// NewServer builds a server with default limits from the compiled network
// and the client's published evaluation keys.
func NewServer(params ckks.Parameters, henet *hecnn.Network, rlk *ckks.RelinearizationKey, rtk *ckks.RotationKeys) *Server {
	return NewServerWithConfig(params, henet, rlk, rtk, Config{})
}

// NewServerWithConfig builds a server with explicit limits.
func NewServerWithConfig(params ckks.Parameters, henet *hecnn.Network, rlk *ckks.RelinearizationKey, rtk *ckks.RotationKeys, cfg Config) *Server {
	cfg = cfg.withDefaults()
	// One pool for the whole server: every request's limb/digit/rotation
	// fan-out and the request-level concurrency compete for the same
	// Workers budget (see Config.Workers). Evaluation stays deterministic,
	// so attaching the pool never changes a response byte.
	pool := parallel.New(cfg.Workers)
	params.AttachPool(pool)
	pool.SetMetrics(cfg.Metrics)
	s := &Server{
		pool:   pool,
		params: params,
		net:    henet,
		ctx: &hecnn.Context{
			Params:  params,
			Encoder: ckks.NewEncoder(params),
			Eval:    ckks.NewEvaluator(params, rlk, rtk),
		},
		cfg:       cfg,
		adm:       newAdmitter(cfg.MaxConcurrent, cfg.QueueDepth, cfg.Metrics),
		met:       newServerMetrics(cfg.Metrics, henet),
		flight:    cfg.Flight,
		slowLog:   cfg.SlowRequestLog,
		listeners: make(map[net.Listener]struct{}),
		conns:     make(map[net.Conn]struct{}),
		drained:   make(chan struct{}),
	}
	if cfg.ShedEWMA > 0 {
		s.shed = newShedder(cfg.ShedEWMA, cfg.MaxConcurrent)
	}
	if cfg.CacheBytes >= 0 {
		// Pre-encode every weight/bias plaintext at the exact levels and
		// scales the compiled plan consumes, so steady-state requests
		// perform zero Encoder.Encode calls (responses are bit-identical
		// either way — see hecnn.TestCompiledZeroEncodeSteadyState).
		// Unset budgets auto-size from the compiled operand set: BSGS
		// operand sets outgrow the fixed default and would thrash the LRU
		// on every request (hecnn.AutoPlaintextCacheBytes).
		budget := cfg.CacheBytes
		if budget == 0 {
			budget = hecnn.AutoPlaintextCacheBytes(henet, params, params.MaxLevel())
		}
		s.compiled = hecnn.NewCompiledNetwork(henet, params, s.ctx.Encoder, budget)
		s.compiled.SetMetrics(cfg.Metrics)
		s.compiled.Warm(params.MaxLevel())
	}
	if cfg.Batch != nil {
		bc := cfg.Batch.withDefaults()
		s.bparams = bc.Params
		bctx := &hecnn.Context{
			Params:  bc.Params,
			Encoder: ckks.NewEncoder(bc.Params),
			Eval:    ckks.NewEvaluator(bc.Params, bc.Rlk, bc.Rtk),
		}
		cb := hecnn.NewCompiledBatched(bc.Net, bc.Params, bctx.Encoder, bc.CacheBytes)
		cb.SetMetrics(cfg.Metrics)
		cb.Warm(bc.Params.MaxLevel())
		s.bat = newBatcher(bc, bctx, cb, s.adm, s.met)
		s.bat.flight = cfg.Flight
		go s.bat.run()
	}
	s.defRT = &tenantRuntime{
		params:   s.params,
		net:      s.net,
		ctx:      s.ctx,
		compiled: s.compiled,
		bparams:  s.bparams,
		bat:      s.bat,
	}
	if cfg.Registry != nil {
		if cfg.Models == nil {
			panic("mlaas: Config.Registry requires Config.Models")
		}
		s.tenants = newTenantSet(cfg.Registry, cfg.Models, s)
	}
	return s
}

// backend returns the evaluation backend for one request on the default
// runtime. rec may be nil for untraced requests.
func (s *Server) backend(rec *hecnn.Recorder) hecnn.Backend {
	return s.defRT.backend(rec)
}

// resolveTenant maps a routing frame to its resident runtime: registry
// lookup (typed unknown-tenant refusal on a miss), client generation
// check (a client whose keys derive from a rotated-away generation is
// refused rather than served undecryptable logits), then lazy runtime
// materialization.
func (s *Server) resolveTenant(hdr RouteHeader) (*tenantRuntime, *wireError) {
	if s.tenants == nil {
		return nil, &wireError{StatusBadRequest, fmt.Sprintf("tenant %q routed to a server without multi-tenant serving", hdr.Tenant)}
	}
	rec, err := s.tenants.reg.Lookup(hdr.Tenant)
	if err != nil {
		if errors.Is(err, registry.ErrNotFound) {
			return nil, &wireError{StatusUnknownTenant, fmt.Sprintf("unknown tenant %q", hdr.Tenant)}
		}
		return nil, &wireError{StatusInternal, fmt.Sprintf("registry lookup for %q: %v", hdr.Tenant, err)}
	}
	if hdr.Generation != 0 && hdr.Generation != rec.Generation {
		return nil, &wireError{StatusBadRequest, fmt.Sprintf(
			"tenant %q generation mismatch: client keys at generation %d, registry at %d — re-derive from the current record",
			hdr.Tenant, hdr.Generation, rec.Generation)}
	}
	rt, err := s.tenants.runtime(rec)
	if err != nil {
		return nil, &wireError{StatusInternal, fmt.Sprintf("materializing tenant %q: %v", hdr.Tenant, err)}
	}
	return rt, nil
}

// observes reports whether requests need a trace (metrics, slow log, or
// flight recorder).
func (s *Server) observes() bool {
	return s.met != nil || s.flight != nil || (s.cfg.SlowRequestThreshold > 0 && s.slowLog != nil)
}

// Served returns the number of completed inferences.
func (s *Server) Served() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats.Served
}

// Stats returns a snapshot of the request counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// PoolStats returns a snapshot of the evaluation worker pool's scheduling
// counters (workers, busy, items by execution mode).
func (s *Server) PoolStats() parallel.Stats { return s.pool.Stats() }

// Serve accepts connections until the listener closes or the server shuts
// down, handling one inference per connection. During a drain it keeps
// accepting just long enough to refuse each connection with
// StatusShuttingDown; once drained, Shutdown closes the listener and
// Serve returns ErrServerClosed.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		l.Close()
		return ErrServerClosed
	}
	s.listeners[l] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.listeners, l)
		s.mu.Unlock()
	}()

	for {
		conn, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			draining := s.draining
			s.mu.Unlock()
			if draining {
				return ErrServerClosed
			}
			return err
		}
		go func() {
			defer conn.Close()
			s.trackConn(conn, true)
			defer s.trackConn(conn, false)
			s.Handle(conn)
		}()
	}
}

func (s *Server) trackConn(c net.Conn, add bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if add {
		s.conns[c] = struct{}{}
	} else {
		delete(s.conns, c)
	}
}

// Shutdown stops admitting new requests, waits for in-flight inferences
// to drain, then closes the listeners. While draining, new connections
// are refused with StatusShuttingDown. If ctx expires first, the
// remaining connections are severed and the error reports how many
// in-flight requests were dropped.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	if s.inflight == 0 {
		s.closeDrained()
	}
	s.mu.Unlock()
	if s.bat != nil {
		// Flush parked batch members immediately: their handlers are
		// in-flight requests the drain below waits for.
		s.bat.drain()
	}
	if s.tenants != nil {
		s.tenants.forEachBatcher(func(b *batcher) { b.drain() })
	}

	var err error
	select {
	case <-s.drained:
	case <-ctx.Done():
		s.mu.Lock()
		dropped := s.inflight
		s.stats.Dropped += dropped
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		err = fmt.Errorf("mlaas: shutdown forced, %d in-flight requests dropped: %w", dropped, ctx.Err())
	}

	s.mu.Lock()
	for l := range s.listeners {
		l.Close()
	}
	s.mu.Unlock()
	if s.bat != nil {
		// Stop the scheduler; any member still pending (forced shutdown)
		// is failed with StatusShuttingDown rather than evaluated.
		s.bat.stop()
	}
	if s.tenants != nil {
		s.tenants.forEachBatcher(func(b *batcher) { b.stop() })
	}
	return err
}

func (s *Server) closeDrained() {
	s.drainOnce.Do(func() { close(s.drained) })
}

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
// slow-request log.
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
		s.writeFailure(trw, StatusShuttingDown, fmt.Sprintf("req %d: server is shutting down", reqID))
		return true
	}
	s.inflight++
	s.mu.Unlock()
	s.met.inflightAdd(1)
	defer func() {
		s.met.inflightAdd(-1)
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
			s.outcome(rt, StatusBusy)
			msg := fmt.Sprintf("req %d: shed: projected completion exceeds the request budget (%d busy, %d queued)",
				reqID, busy, queued)
			s.writeFailure(trw, StatusBusy, withRetryAfterHint(msg, hint))
			return true
		}
	}
	wait, decision := s.adm.acquire(deadline)
	if decision != admitOK {
		s.mu.Lock()
		s.stats.Rejected++
		s.mu.Unlock()
		s.outcome(rt, StatusBusy)
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
		s.writeFailure(trw, StatusBusy, msg)
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
	err := s.serveRequest(trw, rt, releaseSlot)
	if err == nil {
		s.outcome(rt, StatusOK)
		return false
	}
	var we *wireError
	if !errors.As(err, &we) {
		// Transport-level failure before classification; report it as a
		// bad request — if the peer is gone the write just fails silently.
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
	s.outcome(rt, we.status)
	// The failure report gets one fresh I/O window even when the request
	// died by exhausting its budget.
	trw.abs = time.Now().Add(s.cfg.IOTimeout)
	s.writeFailure(trw, we.status, fmt.Sprintf("req %d: %s", reqID, we.msg))
	return true
}

// serveRequest runs one exchange, timing each lifecycle phase into rt
// (nil rt skips all timing). Any panic below it — corrupt ciphertext
// structure surviving validation, scale drift in the evaluator, a bug
// in a layer kernel — is confined to this request and surfaced as
// StatusInternal.
func (s *Server) serveRequest(rw *timedRW, rt *reqTrace, releaseSlot func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &wireError{StatusInternal, fmt.Sprintf("evaluation panic: %v", r)}
		}
	}()

	phaseStart := time.Now()
	var cntBuf [4]byte
	if _, err := io.ReadFull(rw, cntBuf[:]); err != nil {
		return &wireError{StatusBadRequest, fmt.Sprintf("reading request header: %v", err)}
	}
	raw := binary.LittleEndian.Uint32(cntBuf[:])
	// traceMagic carries the client's trace context (trace.go). It leads
	// every other prefix; a server without a flight recorder parses and
	// ignores it, so a traced client talks to an untraced new server
	// transparently (old servers refuse the magic as a hostile count).
	if raw == traceMagic {
		tc, err := readTraceBody(rw)
		if err != nil {
			return &wireError{StatusBadRequest, fmt.Sprintf("reading trace context: %v", err)}
		}
		rt.setWire(tc)
		if _, err := io.ReadFull(rw, cntBuf[:]); err != nil {
			return &wireError{StatusBadRequest, fmt.Sprintf("reading request header: %v", err)}
		}
		raw = binary.LittleEndian.Uint32(cntBuf[:])
	}
	// routeMagic names the tenant (route.go): resolution swaps the serving
	// runtime from the single-tenant default to the tenant's own —
	// parameters, keys, compiled network, quota, batch domain. The frame
	// sits between the trace context and the CRC advertisement, matching
	// the order clients and the gateway write.
	run := s.defRT
	if raw == routeMagic {
		hdr, err := readRouteBody(rw)
		if err != nil {
			return &wireError{StatusBadRequest, fmt.Sprintf("reading route frame: %v", err)}
		}
		var we *wireError
		if run, we = s.resolveTenant(hdr); we != nil {
			return we
		}
		rt.setTenant(hdr.Tenant)
		if !run.acquireQuota() {
			return &wireError{StatusBusy, fmt.Sprintf("tenant %q at its admission quota (%d concurrent)", hdr.Tenant, cap(run.quota))}
		}
		defer run.releaseQuota()
		if _, err := io.ReadFull(rw, cntBuf[:]); err != nil {
			return &wireError{StatusBadRequest, fmt.Sprintf("reading request header: %v", err)}
		}
		raw = binary.LittleEndian.Uint32(cntBuf[:])
	}
	// crcMagic advertises CRC framing (frame.go): the success response gets
	// a CRC32 trailer. Like batchMagic it reads as a hostile count on old
	// servers, so the negotiation needs no version field. The magic may
	// precede either framing — [crc][count] or [crc][batch][count].
	crc := raw == crcMagic
	if crc {
		if _, err := io.ReadFull(rw, cntBuf[:]); err != nil {
			return &wireError{StatusBadRequest, fmt.Sprintf("reading request header: %v", err)}
		}
		raw = binary.LittleEndian.Uint32(cntBuf[:])
	}
	if raw == batchMagic && run.bat != nil {
		return s.serveBatched(rw, run, rt, phaseStart, releaseSlot, crc)
	}
	count := int(raw)
	// Reject a hostile count before comparing against the model shape or
	// allocating anything: the bound check must come first. A batched
	// request against a server without batching enabled lands here too —
	// the magic is deliberately far above the cap.
	if count < 1 || count > maxRequestCiphertexts {
		return &wireError{StatusBadRequest, fmt.Sprintf("request ciphertext count %d outside [1,%d]", count, maxRequestCiphertexts)}
	}
	expect := run.net.Layers[0].(*hecnn.ConvPacked).NumPositions()
	if count != expect {
		return &wireError{StatusBadRequest, fmt.Sprintf("expected %d packed ciphertexts, got %d", expect, count)}
	}
	cts := make([]*hecnn.CT, 0, count)
	for i := 0; i < count; i++ {
		ct, err := ckks.ReadCiphertext(rw, run.params)
		if err != nil {
			return &wireError{StatusBadRequest, fmt.Sprintf("reading ciphertext %d: %v", i, err)}
		}
		cts = append(cts, hecnn.WrapCiphertext(ct))
	}
	if rt != nil {
		now := time.Now()
		rt.timePhase(phaseDecode, now.Sub(phaseStart))
		phaseStart = now
	}
	if err := run.net.ValidateCiphertexts(cts, run.params.MaxLevel()); err != nil {
		return &wireError{StatusBadRequest, err.Error()}
	}
	if rt != nil {
		now := time.Now()
		rt.timePhase(phaseValidate, now.Sub(phaseStart))
		phaseStart = now
	}

	if s.testEvalHook != nil {
		s.testEvalHook()
	}
	evalStart := time.Now()
	var out *hecnn.CT
	if rt != nil {
		// Traced path: a per-request recorder feeds the tracer so the
		// per-layer table in the slow-request log and the layer metric
		// families come straight from the ckks trace of this inference.
		rec := hecnn.NewRecorder()
		tr := hecnn.NewTracer(rec)
		if s.met != nil {
			tr.Sink = s.met.observeLayer
		}
		out = run.net.EvaluateTraced(run.backend(rec), cts, tr)
		rt.layers = tr.Stats
		now := time.Now()
		rt.timePhase(phaseEvaluate, now.Sub(phaseStart))
		phaseStart = now
	} else {
		out = run.net.EvaluateEncrypted(run.backend(nil), cts)
	}
	if s.shed != nil {
		s.shed.observe(time.Since(evalStart))
		s.met.setEvalEWMA(s.shed.estimate())
	}

	// Count the inference before replying, as the failure paths do: a
	// client that has read its response must never see stats that miss it.
	s.mu.Lock()
	s.stats.Served++
	s.mu.Unlock()
	var w io.Writer = rw
	var cw *crcWriter
	if crc {
		cw = newCRCWriter(rw)
		w = cw
	}
	if _, err := w.Write([]byte{byte(StatusOK)}); err != nil {
		return nil // client gone; nothing to report
	}
	if _, err := out.Ciphertext().WriteTo(w); err != nil {
		return nil
	}
	if crc {
		writeTrailer(rw, cw.h.Sum32()) //nolint:errcheck // peer may be gone
	}
	rt.timePhase(phaseEncode, time.Since(phaseStart))
	return nil
}

// serveBatched runs one batched exchange: decode and validate the
// position-major ciphertexts, hand the evaluation slot back, park in the
// batch scheduler, and — when the flush delivers — ship the shared logit
// ciphertexts plus this member's slot index. The scheduler evaluates
// whole batches under one evaluation slot; a member whose budget expires
// while parked claims itself away from the next flush and is refused
// with StatusBusy, never stalling the batch.
func (s *Server) serveBatched(rw *timedRW, run *tenantRuntime, rt *reqTrace, phaseStart time.Time, releaseSlot func(), crc bool) error {
	bnet := run.bat.net
	var cntBuf [4]byte
	if _, err := io.ReadFull(rw, cntBuf[:]); err != nil {
		return &wireError{StatusBadRequest, fmt.Sprintf("reading batched request header: %v", err)}
	}
	count := int(binary.LittleEndian.Uint32(cntBuf[:]))
	if count < 1 || count > maxRequestCiphertexts {
		return &wireError{StatusBadRequest, fmt.Sprintf("batched ciphertext count %d outside [1,%d]", count, maxRequestCiphertexts)}
	}
	if expect := bnet.InputSize(); count != expect {
		return &wireError{StatusBadRequest, fmt.Sprintf("expected %d position-major ciphertexts, got %d", expect, count)}
	}
	cts := make([]*hecnn.CT, 0, count)
	for i := 0; i < count; i++ {
		ct, err := ckks.ReadCiphertext(rw, run.bparams)
		if err != nil {
			return &wireError{StatusBadRequest, fmt.Sprintf("reading ciphertext %d: %v", i, err)}
		}
		cts = append(cts, hecnn.WrapCiphertext(ct))
	}
	if rt != nil {
		now := time.Now()
		rt.timePhase(phaseDecode, now.Sub(phaseStart))
		phaseStart = now
	}
	if err := bnet.ValidateBatchCiphertexts(cts, run.bparams.MaxLevel()); err != nil {
		return &wireError{StatusBadRequest, err.Error()}
	}
	if rt != nil {
		now := time.Now()
		rt.timePhase(phaseValidate, now.Sub(phaseStart))
		phaseStart = now
	}
	if s.testEvalHook != nil {
		s.testEvalHook()
	}

	// Park in the scheduler without holding an evaluation slot: the flush
	// acquires one slot for the whole batch.
	releaseSlot()
	m := &batchMember{
		arrival:  time.Now(),
		deadline: rw.abs,
		cts:      cts,
		result:   make(chan batchOutcome, 1),
	}
	if rt != nil {
		// The flush span links every member's trace as a follow-from.
		m.wt = rt.wt
	}
	if we := run.bat.submit(m); we != nil {
		return we
	}
	timer := time.NewTimer(time.Until(m.deadline))
	defer timer.Stop()
	var out batchOutcome
	select {
	case out = <-m.result:
	case <-timer.C:
		if m.claimed.CompareAndSwap(false, true) {
			// Still parked: withdraw before any flush claims it.
			return &wireError{StatusBusy, "request budget expired waiting for a batch"}
		}
		// A flush owns this member; its result is imminent.
		out = <-m.result
	}
	if rt != nil {
		now := time.Now()
		rt.timePhase(phaseEvaluate, now.Sub(phaseStart))
		phaseStart = now
		// The member's request trace links forward to the flush trace that
		// evaluated it (and remembers whether it took the degraded path).
		rt.flushCtx = out.flush
		rt.degraded = out.degraded
	}
	if out.err != nil {
		return out.err
	}

	// Count the inference before replying, as the failure paths do: a
	// client that has read its response must never see stats that miss it.
	s.mu.Lock()
	s.stats.Served++
	s.mu.Unlock()
	var w io.Writer = rw
	var cw *crcWriter
	if crc {
		cw = newCRCWriter(rw)
		w = cw
	}
	var hdr [9]byte
	hdr[0] = byte(StatusOK)
	binary.LittleEndian.PutUint32(hdr[1:5], uint32(out.slot))
	binary.LittleEndian.PutUint32(hdr[5:9], uint32(len(out.outs)))
	if _, err := w.Write(hdr[:]); err != nil {
		return nil // client gone; nothing to report
	}
	for _, ct := range out.outs {
		if _, err := ct.Ciphertext().WriteTo(w); err != nil {
			return nil
		}
	}
	if crc {
		writeTrailer(rw, cw.h.Sum32()) //nolint:errcheck // peer may be gone
	}
	rt.timePhase(phaseEncode, time.Since(phaseStart))
	return nil
}

// writeFailure sends a typed failure response, truncating the message to
// the wire cap. Write errors are ignored: the peer may already be gone.
func (s *Server) writeFailure(w io.Writer, status Status, msg string) {
	WriteFailure(w, status, msg)
}

// WriteFailure writes a typed failure response in the server's wire
// framing: the status byte, then the uint32-length-delimited message,
// truncated to the wire cap. Exported for the gateway, which refuses a
// request in the protocol's own vocabulary when no shard is reachable.
// Write errors are ignored: the peer may already be gone.
func WriteFailure(w io.Writer, status Status, msg string) {
	if len(msg) > maxErrorMessageBytes {
		msg = msg[:maxErrorMessageBytes]
	}
	var hdr [5]byte
	hdr[0] = byte(status)
	binary.LittleEndian.PutUint32(hdr[1:], uint32(len(msg)))
	w.Write(hdr[:])        //nolint:errcheck
	io.WriteString(w, msg) //nolint:errcheck
}

// deadliner is the subset of net.Conn needed for rolling deadlines.
// net.Pipe and *faultnet.Conn implement it too; plain buffers in unit
// tests do not and simply run unbounded.
type deadliner interface {
	SetReadDeadline(time.Time) error
	SetWriteDeadline(time.Time) error
}

// timedRW bumps a rolling per-operation deadline before every read and
// write, clamped to an absolute budget cutoff. It is how one Config
// timeout pair bounds every io.ReadFull and WriteTo in the codec without
// threading deadlines through each call site.
type timedRW struct {
	rw  io.ReadWriter
	d   deadliner // nil when rw cannot carry deadlines
	op  time.Duration
	abs time.Time
}

func newTimedRW(rw io.ReadWriter, op time.Duration, abs time.Time) *timedRW {
	t := &timedRW{rw: rw, op: op, abs: abs}
	if d, ok := rw.(deadliner); ok {
		t.d = d
	}
	return t
}

func (t *timedRW) deadline() time.Time {
	var dl time.Time
	if t.op > 0 {
		dl = time.Now().Add(t.op)
	}
	if !t.abs.IsZero() && (dl.IsZero() || t.abs.Before(dl)) {
		dl = t.abs
	}
	return dl
}

func (t *timedRW) overBudget() error {
	if !t.abs.IsZero() && time.Now().After(t.abs) {
		return fmt.Errorf("request budget exhausted: %w", context.DeadlineExceeded)
	}
	return nil
}

func (t *timedRW) Read(b []byte) (int, error) {
	if err := t.overBudget(); err != nil {
		return 0, err
	}
	if t.d != nil {
		t.d.SetReadDeadline(t.deadline()) //nolint:errcheck
	}
	return t.rw.Read(b)
}

func (t *timedRW) Write(b []byte) (int, error) {
	if err := t.overBudget(); err != nil {
		return 0, err
	}
	if t.d != nil {
		t.d.SetWriteDeadline(t.deadline()) //nolint:errcheck
	}
	return t.rw.Write(b)
}

// Client packs, encrypts, ships, and decrypts. It owns the secret key.
type Client struct {
	params    ckks.Parameters
	net       *hecnn.Network
	encoder   *ckks.Encoder
	encryptor *ckks.Encryptor
	decryptor *ckks.Decryptor

	// Timeout is the rolling per-read/per-write deadline applied when the
	// connection supports deadlines (0 disables). A context deadline on
	// Infer additionally caps the whole exchange.
	Timeout time.Duration

	// FrameCheck opts the client into CRC-framed responses (frame.go):
	// requests are prefixed with crcMagic and success responses must carry
	// a matching CRC32 trailer, turning silently corrupted logits into a
	// typed, retryable ErrFrameCorrupt. Servers predating the framing
	// refuse the magic with a typed bad-request, so leave this off when
	// talking to old servers.
	FrameCheck bool

	// Tenant, when set, prefixes every request with the tenant routing
	// frame (route.go): the gateway routes it to the tenant's home shard
	// and a multi-tenant server resolves this tenant's keys, network, and
	// quota. Leave empty when talking to single-tenant servers.
	Tenant string
	// TenantGeneration, when non-zero, pins the registry generation this
	// client's key material derives from; a server whose registry has
	// rotated past it refuses the request instead of returning logits the
	// client cannot decrypt.
	TenantGeneration uint64

	// BytesSent / BytesReceived accumulate wire traffic; Retries counts
	// extra attempts performed by InferRetry and InferHedged; Hedges
	// counts hedged second attempts InferHedged fired.
	BytesSent     int64
	BytesReceived int64
	Retries       int
	Hedges        int

	// Flight, when non-nil, enables client-side tracing: every
	// Infer/InferRetry/InferHedged call runs under a root span whose
	// trace context is propagated over the wire (trace.go), with one
	// child span per attempt tagged endpoint/breaker-state/hedge. Nil
	// keeps wire bytes and the request path byte-identical to the
	// untraced client.
	Flight *telemetry.FlightRecorder
	// cm holds the pre-resolved client metric handles (SetMetrics).
	cm *clientMetrics

	// Failover state (failover.go): per-endpoint circuit breakers and the
	// latency window behind the quantile-derived hedge delay. Guarded by
	// foMu; lazily initialized on the first InferHedged call.
	foMu       sync.Mutex
	foBreakers map[string]*breaker
	foLat      latencyWindow
}

// NewClient builds the client side from the key material.
func NewClient(params ckks.Parameters, henet *hecnn.Network, pk *ckks.PublicKey, sk *ckks.SecretKey, seed int64) *Client {
	return &Client{
		params:    params,
		net:       henet,
		encoder:   ckks.NewEncoder(params),
		encryptor: ckks.NewEncryptor(params, pk, seed),
		decryptor: ckks.NewDecryptor(params, sk),
		Timeout:   30 * time.Second,
	}
}

// Infer runs one encrypted inference over the connection and returns the
// decrypted logits. The context's deadline bounds the whole exchange;
// failures before any response byte arrive as *TransportError with
// Partial=false (safe to retry on a fresh connection), failures after as
// Partial=true, and typed server refusals as *StatusError.
func (c *Client) Infer(ctx context.Context, conn io.ReadWriter, img *cnn.Tensor) ([]float64, error) {
	sp := c.startClientTrace("infer")
	logits, err := c.inferSpan(ctx, conn, img, sp)
	recordClientTrace(c.Flight, sp, err)
	return logits, err
}

// inferSpan is Infer under an optional span: the span's context rides
// the wire ahead of the request, so the server's trace joins the
// client's. A nil span keeps the exchange byte-identical to the
// untraced protocol.
func (c *Client) inferSpan(ctx context.Context, conn io.ReadWriter, img *cnn.Tensor, sp *telemetry.Span) ([]float64, error) {
	if err := c.net.ValidateInput(img); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var abs time.Time
	if dl, ok := ctx.Deadline(); ok {
		abs = dl
	}
	trw := newTimedRW(conn, c.Timeout, abs)

	cts := c.encryptRequest(img)
	sent, err := writeInferRequest(trw, cts, c.route(), c.FrameCheck, sp.Context())
	c.BytesSent += sent
	if err != nil {
		return nil, &TransportError{Err: err}
	}
	out, recv, err := c.readResponse(trw)
	c.BytesReceived += recv
	if err != nil {
		return nil, err
	}
	return c.decodeLogits(out), nil
}

// encryptRequest packs and encrypts the image into the per-position
// ciphertexts of one request. The encryptor's randomness advances once
// per call, so re-sending the returned ciphertexts (retry, hedge,
// failover) reproduces the exchange bit-for-bit.
func (c *Client) encryptRequest(img *cnn.Tensor) []*ckks.Ciphertext {
	packed := c.net.PackInput(img)
	level := c.params.MaxLevel()
	cts := make([]*ckks.Ciphertext, len(packed))
	for i, v := range packed {
		cts[i] = c.encryptor.Encrypt(c.encoder.Encode(v, level, c.params.Scale))
	}
	return cts
}

// route assembles the client's tenant routing frame; zero when the
// client is untenanted.
func (c *Client) route() RouteHeader {
	return RouteHeader{Tenant: c.Tenant, Generation: c.TenantGeneration}
}

// writeInferRequest streams one request: the optional trace-context
// header, the optional tenant routing frame, the optional crcMagic
// advertisement, the ciphertext count, then the serialized ciphertexts.
// Serialization only reads the ciphertexts, so concurrent hedged
// attempts may stream the same set. A zero tc writes no trace header and
// a zero route writes no routing frame, keeping the legacy framing
// byte-identical.
func writeInferRequest(w io.Writer, cts []*ckks.Ciphertext, route RouteHeader, frameCheck bool, tc telemetry.SpanContext) (int64, error) {
	n, err := writeTraceHeader(w, tc)
	if err != nil {
		return n, err
	}
	rn, err := writeRouteHeader(w, route)
	n += rn
	if err != nil {
		return n, err
	}
	var hdr [8]byte
	h := hdr[4:]
	if frameCheck {
		binary.LittleEndian.PutUint32(hdr[:4], crcMagic)
		h = hdr[:]
	}
	binary.LittleEndian.PutUint32(h[len(h)-4:], uint32(len(cts)))
	m, err := w.Write(h)
	n += int64(m)
	if err != nil {
		return n, err
	}
	for _, ct := range cts {
		mm, err := ct.WriteTo(w)
		n += mm
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// readResponse consumes one response: a typed status, then either the
// result ciphertext (plus, under FrameCheck, the CRC32 trailer the
// server appends for crcMagic requests) or the failure message. It
// never touches mutable client state, so hedged attempts call it
// concurrently; decryption stays with the single caller via
// decodeLogits.
func (c *Client) readResponse(r io.Reader) (*ckks.Ciphertext, int64, error) {
	var recv int64
	src := r
	var cr *crcReader
	if c.FrameCheck {
		cr = newCRCReader(r)
		src = cr
	}
	var status [1]byte
	if _, err := io.ReadFull(src, status[:]); err != nil {
		return nil, recv, &TransportError{Err: err}
	}
	recv++
	if code := Status(status[0]); code != StatusOK {
		// Failure frames never carry a trailer: some refusals are written
		// before the server has read the request's framing advertisement.
		var lenBuf [4]byte
		if _, err := io.ReadFull(src, lenBuf[:]); err != nil {
			return nil, recv, &TransportError{Partial: true, Err: err}
		}
		recv += 4
		msgLen := binary.LittleEndian.Uint32(lenBuf[:])
		if msgLen > maxErrorMessageBytes {
			return nil, recv, &StatusError{Code: code, Msg: "(error message exceeds wire cap)"}
		}
		msg := make([]byte, msgLen)
		if _, err := io.ReadFull(src, msg); err != nil {
			return nil, recv, &TransportError{Partial: true, Err: err}
		}
		recv += int64(msgLen)
		return nil, recv, &StatusError{Code: code, Msg: string(msg)}
	}
	out, err := ckks.ReadCiphertext(src, c.params)
	if err != nil {
		// On a CRC-framed exchange a structural decode failure is
		// corruption evidence — an honest new server would have produced
		// a well-formed frame.
		if c.FrameCheck && errors.Is(err, ckks.ErrMalformed) {
			err = errFrameCorruptf("%v", err)
		}
		return nil, recv, &TransportError{Partial: true, Err: err}
	}
	recv += int64(out.SerializedSize())
	if c.FrameCheck {
		// Snapshot the payload CRC before consuming the trailer bytes.
		sum := cr.h.Sum32()
		if err := readTrailer(r, sum); err != nil {
			return nil, recv, &TransportError{Partial: true, Err: err}
		}
		recv += 8
	}
	return out, recv, nil
}

// decodeLogits decrypts and decodes the result ciphertext. Not safe for
// concurrent use — callers racing attempts decode only the winner.
func (c *Client) decodeLogits(out *ckks.Ciphertext) []float64 {
	logits := c.encoder.Decode(c.decryptor.Decrypt(out))
	rows := c.net.Layers[len(c.net.Layers)-1].OutElems()
	return logits[:rows]
}

// BatchClient is the client side of cross-request batched serving. It
// owns the secret key of the BATCH ring (a different instantiation from
// the per-request ring — typically hecnn.BatchedParams), packs its image
// position-major with the value in slot 0, and decrypts only its own
// slot of the shared logit ciphertexts the server returns. Other members'
// logits sit in other slots of the same ciphertexts; with a shared batch
// key every member could read them, so a deployment batches mutually
// trusting requests (one tenant), exactly as CryptoNets assumes.
type BatchClient struct {
	params    ckks.Parameters
	net       *hecnn.BatchedNetwork
	encoder   *ckks.Encoder
	encryptor *ckks.Encryptor
	decryptor *ckks.Decryptor

	// Timeout is the rolling per-read/per-write deadline, as Client's.
	Timeout time.Duration

	// FrameCheck opts into CRC-framed responses, as Client's: crcMagic
	// precedes the batch magic on the wire and the success response must
	// carry a matching CRC32 trailer.
	FrameCheck bool

	// Tenant/TenantGeneration route batched requests to the tenant's
	// private batch domain, as Client's fields do for the per-request
	// path. Members of one batch always share a tenant — batching mixes
	// slots within one key domain, never across tenants.
	Tenant           string
	TenantGeneration uint64

	// Flight enables client-side tracing, as Client's: the request runs
	// under a root span whose context precedes every other wire prefix,
	// so the server's batch-flush span can link this request's trace.
	Flight *telemetry.FlightRecorder

	BytesSent     int64
	BytesReceived int64
}

// NewBatchClient builds the batch-ring client from its key material.
func NewBatchClient(params ckks.Parameters, bnet *hecnn.BatchedNetwork, pk *ckks.PublicKey, sk *ckks.SecretKey, seed int64) *BatchClient {
	return &BatchClient{
		params:    params,
		net:       bnet,
		encoder:   ckks.NewEncoder(params),
		encryptor: ckks.NewEncryptor(params, pk, seed),
		decryptor: ckks.NewDecryptor(params, sk),
		Timeout:   30 * time.Second,
	}
}

// Infer runs one batched encrypted inference: the image ships as one
// single-slot ciphertext per tensor position and the logits come back at
// the server-assigned slot of the shared output ciphertexts. The server
// coalesces concurrent calls into one evaluation, so latency includes up
// to one batch window of deliberate waiting.
func (c *BatchClient) Infer(ctx context.Context, conn io.ReadWriter, img *cnn.Tensor) ([]float64, error) {
	var sp *telemetry.Span
	if c.Flight != nil {
		sp = telemetry.StartTrace("batch-infer")
	}
	logits, err := c.inferSpan(ctx, conn, img, sp)
	recordClientTrace(c.Flight, sp, err)
	return logits, err
}

func (c *BatchClient) inferSpan(ctx context.Context, conn io.ReadWriter, img *cnn.Tensor, sp *telemetry.Span) ([]float64, error) {
	packed, err := c.net.PackImage(img)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var abs time.Time
	if dl, ok := ctx.Deadline(); ok {
		abs = dl
	}
	trw := newTimedRW(conn, c.Timeout, abs)

	tn, err := writeTraceHeader(trw, sp.Context())
	c.BytesSent += tn
	if err != nil {
		return nil, &TransportError{Err: err}
	}
	rn, err := writeRouteHeader(trw, RouteHeader{Tenant: c.Tenant, Generation: c.TenantGeneration})
	c.BytesSent += rn
	if err != nil {
		return nil, &TransportError{Err: err}
	}
	var hdr [12]byte
	h := hdr[4:]
	if c.FrameCheck {
		binary.LittleEndian.PutUint32(hdr[:4], crcMagic)
		h = hdr[:]
	}
	binary.LittleEndian.PutUint32(h[len(h)-8:len(h)-4], batchMagic)
	binary.LittleEndian.PutUint32(h[len(h)-4:], uint32(len(packed)))
	if _, err := trw.Write(h); err != nil {
		return nil, &TransportError{Err: err}
	}
	c.BytesSent += int64(len(h))
	level := c.params.MaxLevel()
	for _, v := range packed {
		ct := c.encryptor.Encrypt(c.encoder.Encode(v, level, c.params.Scale))
		n, err := ct.WriteTo(trw)
		c.BytesSent += n
		if err != nil {
			return nil, &TransportError{Err: err}
		}
	}

	// Failure frames never carry a trailer (see frame.go); success frames
	// do when FrameCheck advertised the magic.
	var src io.Reader = trw
	var cr *crcReader
	if c.FrameCheck {
		cr = newCRCReader(trw)
		src = cr
	}
	var status [1]byte
	if _, err := io.ReadFull(src, status[:]); err != nil {
		return nil, &TransportError{Err: err}
	}
	c.BytesReceived++
	if code := Status(status[0]); code != StatusOK {
		var lenBuf [4]byte
		if _, err := io.ReadFull(src, lenBuf[:]); err != nil {
			return nil, &TransportError{Partial: true, Err: err}
		}
		c.BytesReceived += 4
		msgLen := binary.LittleEndian.Uint32(lenBuf[:])
		if msgLen > maxErrorMessageBytes {
			return nil, &StatusError{Code: code, Msg: "(error message exceeds wire cap)"}
		}
		msg := make([]byte, msgLen)
		if _, err := io.ReadFull(src, msg); err != nil {
			return nil, &TransportError{Partial: true, Err: err}
		}
		c.BytesReceived += int64(msgLen)
		return nil, &StatusError{Code: code, Msg: string(msg)}
	}

	var shdr [8]byte
	if _, err := io.ReadFull(src, shdr[:]); err != nil {
		return nil, &TransportError{Partial: true, Err: err}
	}
	c.BytesReceived += 8
	slot := int(binary.LittleEndian.Uint32(shdr[:4]))
	count := int(binary.LittleEndian.Uint32(shdr[4:]))
	if slot < 0 || slot >= c.params.Slots() {
		return nil, &TransportError{Partial: true, Err: fmt.Errorf("server assigned slot %d outside the ring's %d slots", slot, c.params.Slots())}
	}
	if count < 1 || count > maxRequestCiphertexts {
		return nil, &TransportError{Partial: true, Err: fmt.Errorf("batched response ciphertext count %d outside [1,%d]", count, maxRequestCiphertexts)}
	}
	if expect := c.net.OutputSize(); count != expect {
		return nil, &TransportError{Partial: true, Err: fmt.Errorf("batched response has %d logit ciphertexts, want %d", count, expect)}
	}
	logits := make([]float64, count)
	for i := 0; i < count; i++ {
		out, err := ckks.ReadCiphertext(src, c.params)
		if err != nil {
			if c.FrameCheck && errors.Is(err, ckks.ErrMalformed) {
				err = errFrameCorruptf("%v", err)
			}
			return nil, &TransportError{Partial: true, Err: err}
		}
		c.BytesReceived += int64(out.SerializedSize())
		logits[i] = c.encoder.Decode(c.decryptor.Decrypt(out))[slot]
	}
	if c.FrameCheck {
		sum := cr.h.Sum32()
		if err := readTrailer(trw, sum); err != nil {
			return nil, &TransportError{Partial: true, Err: err}
		}
		c.BytesReceived += 8
	}
	return logits, nil
}

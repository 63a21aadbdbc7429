package mlaas

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"fxhenn/internal/ckks"
	"fxhenn/internal/hecnn"
	"fxhenn/internal/parallel"
	"fxhenn/internal/registry"
	"fxhenn/internal/telemetry"
)

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
	// requests carrying a routing frame (wire.go) resolve through it to
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

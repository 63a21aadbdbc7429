package mlaas

// Multi-endpoint failover: InferHedged spreads one logical inference over
// a replica set. Each round picks the first endpoint in rotation order
// whose circuit breaker admits traffic, races the attempt against an
// optional hedged second attempt on a different replica (launched after a
// quantile of recently observed latency, or immediately when the primary
// fails with a failover-able error), and between rounds backs off with
// the same jittered schedule — and server retry-after hints — as
// InferRetry. Encryption happens once per call: serialization only reads
// the ciphertexts, so concurrent attempts stream the same request bytes,
// and whichever endpoint answers first produces bit-identical logits.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"time"

	"fxhenn/internal/ckks"
	"fxhenn/internal/cnn"
	"fxhenn/internal/telemetry"
)

// Endpoint is one dialable replica of the serving fleet.
type Endpoint struct {
	// Name keys this endpoint's circuit breaker and appears in errors.
	Name string
	// Dial opens a fresh connection; it must honor ctx.
	Dial func(ctx context.Context) (net.Conn, error)
}

// TCPEndpoint builds an Endpoint dialing addr over TCP. An empty name
// defaults to the address.
func TCPEndpoint(name, addr string) Endpoint {
	if name == "" {
		name = addr
	}
	return Endpoint{
		Name: name,
		Dial: func(ctx context.Context) (net.Conn, error) {
			var d net.Dialer
			return d.DialContext(ctx, "tcp", addr)
		},
	}
}

// ErrAllBreakersOpen is the per-round failure when every endpoint's
// circuit breaker is refusing traffic; InferHedged backs off and retries,
// so the error only escapes when the retry budget outlasts every cooldown.
var ErrAllBreakersOpen = errors.New("mlaas: every endpoint's circuit breaker is open")

// FailoverPolicy shapes InferHedged. The zero value takes every default.
type FailoverPolicy struct {
	// Retry bounds the rounds and shapes the inter-round backoff; its
	// MaxAttempts is the number of failover rounds.
	Retry RetryPolicy
	// Breaker configures the per-endpoint circuit breakers (shared across
	// calls on the same Client).
	Breaker BreakerConfig
	// Hedge enables a timed second attempt against a different replica
	// when the primary has not answered within the hedge delay. With a
	// single endpoint hedging never fires — hedges go to distinct replicas.
	Hedge bool
	// HedgeQuantile picks the latency quantile (over the last
	// latencyWindowSize successful attempts) used as the hedge delay.
	// Default 0.9: hedge when the attempt is slower than 90% of recent
	// history.
	HedgeQuantile float64
	// HedgeInitial is the hedge delay before any latency history exists.
	// Default 500ms.
	HedgeInitial time.Duration
	// HedgeMin floors the quantile-derived delay so a streak of fast
	// responses cannot turn hedging into doubling every request.
	// Default 10ms.
	HedgeMin time.Duration
}

func (p FailoverPolicy) withDefaults() FailoverPolicy {
	p.Retry = p.Retry.withDefaults()
	p.Breaker = p.Breaker.withDefaults()
	if p.HedgeQuantile <= 0 || p.HedgeQuantile > 1 {
		p.HedgeQuantile = 0.9
	}
	if p.HedgeInitial <= 0 {
		p.HedgeInitial = 500 * time.Millisecond
	}
	if p.HedgeMin <= 0 {
		p.HedgeMin = 10 * time.Millisecond
	}
	return p
}

// latencyWindowSize bounds the rolling latency sample behind the hedge
// delay; 64 samples is enough for a stable tail quantile without letting
// ancient history pin the estimate.
const latencyWindowSize = 64

// latencyWindow is a fixed-size ring of successful-attempt durations.
// Guarded by Client.foMu.
type latencyWindow struct {
	ring [latencyWindowSize]time.Duration
	n    int // total samples ever added
}

func (w *latencyWindow) add(d time.Duration) {
	w.ring[w.n%latencyWindowSize] = d
	w.n++
}

// quantile returns the q-quantile of the window, false while empty.
func (w *latencyWindow) quantile(q float64) (time.Duration, bool) {
	size := w.n
	if size == 0 {
		return 0, false
	}
	if size > latencyWindowSize {
		size = latencyWindowSize
	}
	s := make([]time.Duration, size)
	copy(s, w.ring[:size])
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(q*float64(size-1) + 0.5)
	if idx < 0 {
		idx = 0
	}
	if idx >= size {
		idx = size - 1
	}
	return s[idx], true
}

// breakerFor returns (lazily creating) the breaker for one endpoint name.
func (c *Client) breakerFor(name string, cfg BreakerConfig) *Breaker {
	c.foMu.Lock()
	defer c.foMu.Unlock()
	if c.foBreakers == nil {
		c.foBreakers = make(map[string]*Breaker)
	}
	b, ok := c.foBreakers[name]
	if !ok {
		b = NewBreaker(cfg)
		c.foBreakers[name] = b
	}
	return b
}

// EndpointBreakerState reports the circuit-breaker state ("closed",
// "half-open", "open") for an endpoint name; an endpoint never attempted
// reports closed.
func (c *Client) EndpointBreakerState(name string) string {
	c.foMu.Lock()
	b := c.foBreakers[name]
	c.foMu.Unlock()
	if b == nil {
		return breakerClosed.String()
	}
	return b.State().String()
}

func (c *Client) observeLatency(d time.Duration) {
	c.foMu.Lock()
	c.foLat.add(d)
	c.foMu.Unlock()
}

// hedgeDelay derives the current hedge delay from the latency window.
func (c *Client) hedgeDelay(p FailoverPolicy) time.Duration {
	c.foMu.Lock()
	d, ok := c.foLat.quantile(p.HedgeQuantile)
	c.foMu.Unlock()
	if !ok {
		return p.HedgeInitial
	}
	if d < p.HedgeMin {
		d = p.HedgeMin
	}
	return d
}

// terminalFailover reports whether err cannot be cured by another
// endpoint or another round: the request itself is bad (every honest
// replica will refuse it identically), its tenant is unknown to the
// shared registry, or the caller's context is done. Everything else —
// busy, shutting-down, internal, transport failures, frame corruption —
// is endpoint- or moment-local and worth a failover.
func terminalFailover(err error) bool {
	var se *StatusError
	if errors.As(err, &se) && (se.Code == StatusBadRequest || se.Code == StatusUnknownTenant) {
		return true
	}
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// InferHedged runs one encrypted inference against a replica set with
// per-endpoint circuit breaking, inter-round backoff, and optional hedged
// second attempts. The image is packed and encrypted exactly once; every
// attempt ships the same ciphertexts, and only the winning response is
// decrypted. Terminal failures (bad request, context cancellation) return
// immediately; endpoint-local failures rotate to the next replica.
func (c *Client) InferHedged(ctx context.Context, endpoints []Endpoint, img *cnn.Tensor, policy FailoverPolicy) ([]float64, error) {
	if len(endpoints) == 0 {
		return nil, errors.New("mlaas: InferHedged needs at least one endpoint")
	}
	if err := c.net.ValidateInput(img); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	root := c.startClientTrace("infer-hedged")
	logits, err := c.inferHedged(ctx, endpoints, img, policy, root)
	recordClientTrace(c.Flight, root, err)
	return logits, err
}

func (c *Client) inferHedged(ctx context.Context, endpoints []Endpoint, img *cnn.Tensor, policy FailoverPolicy, root *telemetry.Span) ([]float64, error) {
	p := policy.withDefaults()
	rng := rand.New(rand.NewSource(p.Retry.Seed))
	cts := c.encryptRequest(img)

	var lastErr error
	for round := 0; round < p.Retry.MaxAttempts; round++ {
		if round > 0 {
			delay := p.Retry.backoff(round-1, rng)
			if hint, ok := RetryAfterHint(lastErr); ok && hint > delay {
				delay = hint
			}
			if err := p.Retry.Sleep(ctx, delay); err != nil {
				return nil, err
			}
			c.Retries++
			c.cm.observeRetry()
		}
		out, err := c.failoverRound(ctx, endpoints, round, cts, p, root)
		if err == nil {
			return c.decodeLogits(out), nil
		}
		if terminalFailover(err) {
			return nil, err
		}
		lastErr = err
	}
	return nil, fmt.Errorf("mlaas: %d failover rounds exhausted: %w", p.Retry.MaxAttempts, lastErr)
}

// attemptOut is one attempt's result, shipped from its goroutine to the
// round coordinator. Breaker bookkeeping happens in the attempt goroutine
// (the breaker is concurrency-safe and must hear about every admitted
// attempt, even hedge losers); counters and decryption stay with the
// coordinator.
type attemptOut struct {
	ep         string
	out        *ckks.Ciphertext
	sent, recv int64
	dur        time.Duration
	err        error
}

// attemptOnce runs one dial+exchange against ep, reporting the outcome to
// br: OnSuccess/OnFailure normally, OnAbandon when the attempt lost a race
// (ctx cancelled by the coordinator) so an unjudged half-open probe frees
// the breaker instead of wedging it. Under tracing (non-nil parent) the
// attempt runs as a child span tagged with the endpoint, the breaker
// state at launch, and how the attempt was triggered; the span's context
// is what rides the wire, so the server's trace hangs off this attempt.
func (c *Client) attemptOnce(ctx context.Context, ep Endpoint, br *Breaker, cts []*ckks.Ciphertext, parent *telemetry.Span, kind string) attemptOut {
	start := time.Now()
	res := attemptOut{ep: ep.Name}
	sp := parent.StartChild("attempt")
	if sp != nil {
		sp.SetAttr("endpoint", ep.Name)
		sp.SetAttr("breaker", br.State().String())
		sp.SetAttr("kind", kind)
	}
	defer func() {
		res.dur = time.Since(start)
		switch {
		case res.err == nil:
			br.OnSuccess()
		case ctx.Err() != nil:
			br.OnAbandon()
		default:
			br.OnFailure()
		}
		c.cm.setBreaker(ep.Name, br.State())
		if sp != nil {
			if res.err != nil {
				sp.SetAttr("error", res.err.Error())
			} else {
				sp.SetAttr("outcome", "ok")
			}
			sp.End()
		}
	}()

	conn, err := ep.Dial(ctx)
	if err != nil {
		res.err = fmt.Errorf("dial %s: %w", ep.Name, err)
		return res
	}
	// Watchdog: a cancelled attempt (hedge loser, caller gone) must not
	// stay blocked in I/O — closing the conn fails the pending op.
	watchDone := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			conn.Close()
		case <-watchDone:
		}
	}()
	defer func() {
		close(watchDone)
		conn.Close()
	}()

	dl, _ := ctx.Deadline()
	trw := newTimedRW(conn, c.Timeout, dl)
	h := c.header(sp)
	if res.sent, res.err = writeRequest(trw, h, cts); res.err != nil {
		res.err = &TransportError{Err: fmt.Errorf("%s: %w", ep.Name, res.err)}
		return res
	}
	resp, recv, err := readResponse(trw, c.params, h, 1)
	res.recv, res.err = recv, err
	if err == nil {
		res.out = resp.cts[0]
	}
	return res
}

// failoverRound runs one round: the first breaker-admitted endpoint in
// rotation order, raced against at most one hedged attempt on a distinct
// replica. The hedge launches when the timed delay elapses (p.Hedge) or
// immediately when the primary fails with a non-terminal error. Returns
// the winning ciphertext, or the first error once every launched attempt
// has failed.
func (c *Client) failoverRound(ctx context.Context, endpoints []Endpoint, round int, cts []*ckks.Ciphertext, p FailoverPolicy, root *telemetry.Span) (*ckks.Ciphertext, error) {
	// Claim the primary: first endpoint in rotation order whose breaker
	// admits (Allow may consume a half-open probe — the attempt that
	// follows always reports back).
	var primary Endpoint
	var primaryBr *Breaker
	found := false
	for i := 0; i < len(endpoints) && !found; i++ {
		ep := endpoints[(round+i)%len(endpoints)]
		br := c.breakerFor(ep.Name, p.Breaker)
		if br.Allow() {
			primary, primaryBr, found = ep, br, true
		}
	}
	if !found {
		return nil, ErrAllBreakersOpen
	}
	// pickHedge claims a second, distinct replica at launch time — probing
	// breakers only when the hedge actually fires.
	pickHedge := func() (Endpoint, *Breaker, bool) {
		for i := 0; i < len(endpoints); i++ {
			ep := endpoints[(round+1+i)%len(endpoints)]
			if ep.Name == primary.Name {
				continue
			}
			br := c.breakerFor(ep.Name, p.Breaker)
			if br.Allow() {
				return ep, br, true
			}
		}
		return Endpoint{}, nil, false
	}

	actx, cancel := context.WithCancel(ctx)
	defer cancel() // releases losers; their goroutines report OnAbandon

	results := make(chan attemptOut, 2)
	inflight := 1
	go func() { results <- c.attemptOnce(actx, primary, primaryBr, cts, root, "primary") }()

	var hedgeC <-chan time.Time
	if p.Hedge && len(endpoints) > 1 {
		t := time.NewTimer(c.hedgeDelay(p))
		defer t.Stop()
		hedgeC = t.C
	}
	launchHedge := func(timed bool) {
		hedgeC = nil
		ep, br, ok := pickHedge()
		if !ok {
			return
		}
		kind := "failover"
		if timed {
			c.Hedges++
			c.cm.observeHedge()
			kind = "hedge"
		}
		inflight++
		go func() { results <- c.attemptOnce(actx, ep, br, cts, root, kind) }()
	}

	hedged := false
	var firstErr error
	for {
		select {
		case r := <-results:
			c.BytesSent += r.sent
			c.BytesReceived += r.recv
			if r.err == nil {
				c.observeLatency(r.dur)
				return r.out, nil
			}
			inflight--
			if firstErr == nil {
				firstErr = r.err
			}
			// Primary died while the hedge is still unlaunched: fail over
			// inside the round instead of burning the backoff, unless the
			// failure condemns the request itself.
			if !hedged && !terminalFailover(r.err) {
				hedged = true
				launchHedge(false)
			}
			if inflight == 0 {
				return nil, firstErr
			}
		case <-hedgeC:
			hedged = true
			launchHedge(true)
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// Package gateway is the stateless front door of the sharded evaluator
// fleet: it peeks each request's tenant routing frame (mlaas.PeekRoute),
// picks the tenant's home shard on a consistent-hash ring, and splices
// bytes between client and shard without parsing — or holding — any
// ciphertext. All tenant state (keys, compiled network, plaintext cache)
// lives on the shard; the gateway holds only the ring and per-shard
// breakers, so any number of gateways can front the same fleet.
//
// Unreachable shards trip a consecutive-failure breaker and the request
// re-routes to the tenant's next shard in ring order — deterministically,
// so every gateway re-routes the same tenant the same way. When no shard
// answers, the gateway refuses in the protocol's own vocabulary
// (mlaas.WriteFailure, StatusBusy) so ordinary clients back off and
// retry rather than seeing a torn connection.
//
// Shards leave the fleet by rolling drain (RemoveShard): the shard comes
// off the ring first — new requests re-route immediately — then the call
// waits for the shard's in-flight proxied requests to finish, mirroring
// the evaluator's own Shutdown(ctx) contract.
package gateway

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"fxhenn/internal/mlaas"
	"fxhenn/internal/telemetry"
)

// Metric names exported by the gateway.
const (
	MetricRouted   = "gateway_routed_total"   // counter{shard}
	MetricReroutes = "gateway_reroutes_total" // counter{shard} — requests moved off their home shard
	MetricRefused  = "gateway_refused_total"  // counter — no shard reachable
)

// ErrGatewayClosed is returned by Serve after Shutdown stops the
// listener.
var ErrGatewayClosed = errors.New("gateway: closed")

// Shard names one evaluator endpoint.
type Shard struct {
	Name string
	Addr string
	// Dial overrides TCP dialing to Addr — the seam the cluster tests
	// use to run shards in-process and to splice fault injection in.
	Dial func(ctx context.Context) (net.Conn, error)
}

func (s Shard) dial(ctx context.Context) (net.Conn, error) {
	if s.Dial != nil {
		return s.Dial(ctx)
	}
	var d net.Dialer
	return d.DialContext(ctx, "tcp", s.Addr)
}

// Config bounds a Gateway. The zero value takes every default.
type Config struct {
	// IOTimeout is the rolling deadline for the client connection and
	// the budget for dialing a shard. Default 30s.
	IOTimeout time.Duration
	// BreakerThreshold is how many consecutive dial failures open a
	// shard's breaker. Default 3.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker rejects before
	// allowing a probe, jittered ±20% and not doubled across open cycles
	// (mlaas.BreakerConfig with MaxCooldown = Cooldown). Default 5s.
	BreakerCooldown time.Duration
	// Metrics, when non-nil, receives the gateway metric families.
	Metrics *telemetry.Registry
}

func (c Config) withDefaults() Config {
	if c.IOTimeout <= 0 {
		c.IOTimeout = 30 * time.Second
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 5 * time.Second
	}
	return c
}

// shardState is the gateway's per-shard bookkeeping: the endpoint, the
// dial breaker, and the in-flight count a rolling drain waits on.
type shardState struct {
	shard   Shard
	breaker *mlaas.Breaker

	mu     sync.Mutex
	active int
	idle   chan struct{} // closed-and-replaced signal: active hit zero
}

func (st *shardState) enter() {
	st.mu.Lock()
	st.active++
	st.mu.Unlock()
}

func (st *shardState) exit() {
	st.mu.Lock()
	st.active--
	if st.active == 0 && st.idle != nil {
		close(st.idle)
		st.idle = nil
	}
	st.mu.Unlock()
}

// drained returns a channel that closes when the shard has no in-flight
// proxied requests (immediately if it is already idle).
func (st *shardState) drained() <-chan struct{} {
	st.mu.Lock()
	defer st.mu.Unlock()
	ch := make(chan struct{})
	if st.active == 0 {
		close(ch)
		return ch
	}
	if st.idle == nil {
		st.idle = make(chan struct{})
	}
	return st.idle
}

// Gateway routes tenant requests to their home shard.
type Gateway struct {
	cfg  Config
	ring *Ring

	mu        sync.Mutex
	shards    map[string]*shardState
	listeners map[net.Listener]struct{}
	conns     map[net.Conn]struct{}
	closed    bool

	metRouted   map[string]*telemetry.Counter
	metReroutes map[string]*telemetry.Counter
	metRefused  *telemetry.Counter
}

// New builds a gateway over the given shards; more can join later via
// AddShard.
func New(cfg Config, shards ...Shard) *Gateway {
	g := &Gateway{
		cfg:       cfg.withDefaults(),
		ring:      NewRing(),
		shards:    make(map[string]*shardState),
		listeners: make(map[net.Listener]struct{}),
		conns:     make(map[net.Conn]struct{}),
	}
	if r := g.cfg.Metrics; r != nil {
		g.metRouted = make(map[string]*telemetry.Counter)
		g.metReroutes = make(map[string]*telemetry.Counter)
		g.metRefused = r.Counter(MetricRefused, "requests refused with no reachable shard")
	}
	for _, s := range shards {
		g.AddShard(s) //nolint:errcheck // duplicate names surface on the explicit path
	}
	return g
}

// AddShard joins a shard to the ring; tenants hashing to its arcs route
// there from the next request on.
func (g *Gateway) AddShard(s Shard) error {
	if s.Name == "" {
		return errors.New("gateway: shard needs a name")
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.shards[s.Name]; ok {
		return fmt.Errorf("gateway: shard %q already present", s.Name)
	}
	g.shards[s.Name] = &shardState{
		shard: s,
		breaker: mlaas.NewBreaker(mlaas.BreakerConfig{
			Threshold:   g.cfg.BreakerThreshold,
			Cooldown:    g.cfg.BreakerCooldown,
			MaxCooldown: g.cfg.BreakerCooldown,
		}),
	}
	g.ring.Add(s.Name)
	return nil
}

// RemoveShard rolls a shard out of the fleet: it leaves the ring first,
// so new requests re-route immediately, then the call waits — up to ctx —
// for the shard's in-flight proxied requests to finish. The shard state
// is dropped either way; a ctx error reports how many requests were
// still splicing when the deadline hit.
func (g *Gateway) RemoveShard(ctx context.Context, name string) error {
	g.mu.Lock()
	st, ok := g.shards[name]
	if !ok {
		g.mu.Unlock()
		return fmt.Errorf("gateway: shard %q not present", name)
	}
	g.ring.Remove(name)
	delete(g.shards, name)
	g.mu.Unlock()

	select {
	case <-st.drained():
		return nil
	case <-ctx.Done():
		st.mu.Lock()
		n := st.active
		st.mu.Unlock()
		return fmt.Errorf("gateway: shard %q drain incomplete (%d in flight): %w", name, n, ctx.Err())
	}
}

// Shards returns the current fleet in ring-membership (sorted) order.
func (g *Gateway) Shards() []string { return g.ring.Members() }

// BreakerState reports a shard's breaker state ("closed", "open",
// "half-open"), or "absent".
func (g *Gateway) BreakerState(name string) string {
	g.mu.Lock()
	st, ok := g.shards[name]
	g.mu.Unlock()
	if !ok {
		return "absent"
	}
	return st.breaker.State().String()
}

// Serve accepts connections until the listener closes or the gateway
// shuts down, proxying one request per connection.
func (g *Gateway) Serve(l net.Listener) error {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		l.Close()
		return ErrGatewayClosed
	}
	g.listeners[l] = struct{}{}
	g.mu.Unlock()
	defer func() {
		g.mu.Lock()
		delete(g.listeners, l)
		g.mu.Unlock()
	}()

	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		conn, err := l.Accept()
		if err != nil {
			g.mu.Lock()
			closed := g.closed
			g.mu.Unlock()
			if closed {
				return ErrGatewayClosed
			}
			return err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			g.Handle(conn)
		}()
	}
}

// Shutdown closes the listeners and every spliced connection.
func (g *Gateway) Shutdown(ctx context.Context) error {
	g.mu.Lock()
	g.closed = true
	for l := range g.listeners {
		l.Close()
	}
	for c := range g.conns {
		c.Close()
	}
	g.mu.Unlock()
	return nil
}

// track registers a live client connection for Shutdown teardown; the
// returned func unregisters it.
func (g *Gateway) track(conn net.Conn) (func(), bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return nil, false
	}
	g.conns[conn] = struct{}{}
	return func() {
		g.mu.Lock()
		delete(g.conns, conn)
		g.mu.Unlock()
	}, true
}

// Handle proxies one request: peek the routing frame, pick the tenant's
// shard chain, splice bytes to the first shard that answers.
func (g *Gateway) Handle(conn net.Conn) {
	defer conn.Close()
	untrack, ok := g.track(conn)
	if !ok {
		mlaas.WriteFailure(conn, mlaas.StatusShuttingDown, "gateway is shutting down")
		return
	}
	defer untrack()

	conn.SetReadDeadline(time.Now().Add(g.cfg.IOTimeout)) //nolint:errcheck
	hdr, consumed, _, err := mlaas.PeekRoute(conn)
	if err != nil {
		// The prefix never arrived or was malformed; the shard-side parser
		// would refuse it anyway, but there is nothing left to route.
		mlaas.WriteFailure(conn, mlaas.StatusBadRequest, fmt.Sprintf("gateway: %v", err))
		return
	}

	// Untenanted requests still need a stable home so the fleet serves
	// legacy traffic: hash the empty tenant like any other key.
	candidates := g.ring.PickN(hdr.Tenant, g.ring.Len())
	if len(candidates) == 0 {
		g.refused()
		mlaas.WriteFailure(conn, mlaas.StatusBusy, "gateway: no shards in the fleet")
		return
	}

	for i, name := range candidates {
		g.mu.Lock()
		st, ok := g.shards[name]
		g.mu.Unlock()
		if !ok {
			continue // lost a race with RemoveShard; try the next candidate
		}
		if !st.breaker.Allow() {
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), g.cfg.IOTimeout)
		up, err := st.shard.dial(ctx)
		cancel()
		if err != nil {
			st.breaker.OnFailure()
			continue
		}
		st.breaker.OnSuccess()
		if i > 0 {
			g.rerouted(name)
		}
		g.routed(name)
		st.enter()
		g.splice(conn, up, consumed)
		st.exit()
		return
	}
	g.refused()
	mlaas.WriteFailure(conn, mlaas.StatusBusy, fmt.Sprintf("gateway: no shard reachable for tenant %q", hdr.Tenant))
}

// splice replays the peeked prefix to the shard, then copies bytes both
// ways until the response completes (the shard closes its side) or
// either peer fails.
func (g *Gateway) splice(client, shard net.Conn, consumed []byte) {
	defer shard.Close()
	shard.SetDeadline(time.Now().Add(g.cfg.IOTimeout))  //nolint:errcheck
	client.SetDeadline(time.Now().Add(g.cfg.IOTimeout)) //nolint:errcheck
	if _, err := shard.Write(consumed); err != nil {
		mlaas.WriteFailure(client, mlaas.StatusInternal, "gateway: shard went away mid-request")
		return
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		io.Copy(shard, client) //nolint:errcheck // request side; shard read error ends the exchange
		// Half-close toward the shard where the transport supports it, so
		// a shard blocked on a short request sees EOF instead of a stall.
		if cw, ok := shard.(interface{ CloseWrite() error }); ok {
			cw.CloseWrite() //nolint:errcheck
		}
	}()
	io.Copy(client, shard) //nolint:errcheck // response side
	client.Close()         // unblocks the request-side copy if it is still parked
	<-done
}

func (g *Gateway) routed(shard string) {
	if g.cfg.Metrics == nil {
		return
	}
	g.mu.Lock()
	c, ok := g.metRouted[shard]
	if !ok {
		c = g.cfg.Metrics.Counter(MetricRouted, "requests proxied, by shard", telemetry.L("shard", shard))
		g.metRouted[shard] = c
	}
	g.mu.Unlock()
	c.Inc()
}

func (g *Gateway) rerouted(shard string) {
	if g.cfg.Metrics == nil {
		return
	}
	g.mu.Lock()
	c, ok := g.metReroutes[shard]
	if !ok {
		c = g.cfg.Metrics.Counter(MetricReroutes, "requests served off their home shard, by serving shard", telemetry.L("shard", shard))
		g.metReroutes[shard] = c
	}
	g.mu.Unlock()
	c.Inc()
}

func (g *Gateway) refused() {
	if g.metRefused != nil {
		g.metRefused.Inc()
	}
}

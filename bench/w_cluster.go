package main

// tiny_cluster_open: the serving stack under load. A gateway fronts two
// mlaas shards over an in-memory registry with four tenants (tiny and
// tinyconv, each compiled as ladder and as BSGS). Evaluation is 15–30 ms
// here, so the wire codec, admission, tenant lookup, cache hits and the
// gateway splice are a visible share of every request — the opposite of
// mnist_single. Two phases:
//
//	cap   closed loop, nproc connections: what the stack can carry. It
//	      keeps every core busy, which is where this host is least steady
//	      (±15 % between identical runs), so capacity_rps is recorded and
//	      compared but not among the metrics the driver gates;
//	open  a seeded Poisson schedule at a fixed rate below that capacity,
//	      nproc senders, latency timed from each request's due time. The
//	      gated metrics all come from here.
//
// Tenants take turns (request i belongs to tenant i mod 4), so the mix is
// exact rather than sampled and allocation per request does not wander
// with the seed.

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"time"

	"fxhenn/internal/gateway"
	"fxhenn/internal/mlaas"
	"fxhenn/internal/registry"
	"fxhenn/internal/telemetry"
)

const (
	// openRatePerSec is fixed, not derived from the cap phase: a rate
	// that moved with capacity would hide a capacity regression from the
	// latency metrics. The stack carried 100 req/s closed-loop on a quiet
	// 2-core host and 70–80 when a neighbour was busy. At 50 req/s (the
	// issue's figure) the busy host sat at 65–70 % utilisation, where
	// queueing multiplies every wobble: ten seeds spread the open-loop p50
	// by 40 % and within_limit_share by 12 %. 30 req/s is 30–43 % of
	// capacity: requests still queue behind each other (two senders,
	// ≈ 25 ms each) but a 25 % slower host moves latency by about 25 %.
	openRatePerSec = 30
	// capShare of the run goes to the cap phase, the rest to open.
	capShare = 0.2
	// hopPairs gateway/direct request pairs estimate gateway.hop_ms.
	hopPairs = 100
)

var clusterModels = []struct {
	model string
	bsgs  bool
}{
	{"tiny", false}, {"tiny", true}, {"tinyconv", false}, {"tinyconv", true},
}

type clusterStack struct {
	tenants []*tenant
	shards  []*mlaas.Server
	addrOf  map[string]string // shard name → listen address
	gw      *gateway.Gateway
	gwAddr  string
	reg     *telemetry.Registry       // nil when untraced
	flight  *telemetry.FlightRecorder // shard 0's; nil when untraced
	// clients[sender][tenant]: a Client's encryptor is not safe to share.
	clients     [][]*mlaas.Client
	firstDigest string
}

func (s *clusterStack) shutdown() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if s.gw != nil {
		s.gw.Shutdown(ctx) //nolint:errcheck // forced close is still a close
	}
	for _, srv := range s.shards {
		srv.Shutdown(ctx) //nolint:errcheck
	}
}

func clusterRecord(cfg runConfig, t int) registry.Record {
	m := clusterModels[t]
	return registry.Record{
		Tenant: fmt.Sprintf("t%d-%s", t, m.model), Model: m.model, BSGS: m.bsgs,
		WeightSeed: subSeed(cfg.Seed, 10*(t+1)+seedWeights), KeySeed: subSeed(cfg.Seed, 10*(t+1)+seedKeys),
	}
}

func encSeed(cfg runConfig, sender, t int) int64 {
	return subSeed(cfg.Seed, 1000*(sender+1)+10*(t+1)+seedEncryptor)
}

func buildCluster(cfg runConfig) (*clusterStack, error) {
	s := &clusterStack{addrOf: map[string]string{}}
	if cfg.Trace {
		s.reg = telemetry.NewRegistry()
	}
	reg := registry.New(registry.NewMemStore())
	for t := range clusterModels {
		if err := reg.Register(clusterRecord(cfg, t)); err != nil {
			return nil, err
		}
		rec, err := reg.Lookup(clusterRecord(cfg, t).Tenant) // Register assigns the generation
		if err != nil {
			return nil, err
		}
		tn, err := newTenant(rec, 32, subSeed(cfg.Seed, seedImages*(t+1)))
		if err != nil {
			return nil, err
		}
		s.tenants = append(s.tenants, tn)
	}

	// Unrouted requests need a default network; every shard gets tenant
	// 0's, as the cluster harness does. The workload sends none.
	base, err := mlaas.StandardCatalog()(s.tenants[0].rec)
	if err != nil {
		return nil, err
	}
	var shards []gateway.Shard
	for i := 0; i < 2; i++ {
		mcfg := mlaas.Config{Registry: reg, Models: mlaas.StandardCatalog()}
		if cfg.Trace {
			mcfg.Metrics = s.reg
			mcfg.Flight = telemetry.NewFlightRecorder(telemetry.FlightConfig{SampleRate: 1})
			if i == 0 {
				s.flight = mcfg.Flight
			}
		}
		srv := mlaas.NewServerWithConfig(base.Params, base.Net, base.Rlk, base.Rtk, mcfg)
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			s.shutdown()
			return nil, err
		}
		go srv.Serve(l) //nolint:errcheck // returns ErrServerClosed at shutdown
		name := fmt.Sprintf("shard-%d", i)
		s.shards = append(s.shards, srv)
		s.addrOf[name] = l.Addr().String()
		shards = append(shards, gateway.Shard{Name: name, Addr: l.Addr().String()})
	}
	s.gw = gateway.New(gateway.Config{Metrics: s.reg}, shards...)
	gl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.shutdown()
		return nil, err
	}
	s.gwAddr = gl.Addr().String()
	go s.gw.Serve(gl) //nolint:errcheck // returns ErrGatewayClosed at shutdown

	senders := runtime.NumCPU()
	for sender := 0; sender < senders; sender++ {
		var row []*mlaas.Client
		for t, tn := range s.tenants {
			cl, err := mlaas.StandardTenantClient(tn.rec, encSeed(cfg, sender, t))
			if err != nil {
				s.shutdown()
				return nil, err
			}
			row = append(row, cl)
		}
		s.clients = append(s.clients, row)
	}

	// Warm every tenant on every shard (a re-route must not find a cold
	// runtime), then once through the gateway; the very first gateway
	// exchange is the one replayed at the end.
	addrs := []string{s.gwAddr}
	for _, addr := range s.addrOf {
		addrs = append(addrs, addr)
	}
	for t, tn := range s.tenants {
		for _, addr := range addrs {
			ex, err := infer(s.clients[0][t], addr, tn.pool[0].img, false, t == 0 && addr == s.gwAddr)
			if err == nil {
				_, err = checkLogits(ex.logits, tn.pool[0].want)
			}
			if err != nil {
				s.shutdown()
				return nil, fmt.Errorf("warming %s at %s: %w", tn.rec.Tenant, addr, err)
			}
			if t == 0 && addr == s.gwAddr {
				s.firstDigest = ex.conn.responseDigest()
			}
		}
	}
	return s, nil
}

// op sends request i of a phase: tenant i mod 4, next image of its pool.
func (s *clusterStack) op(cfg runConfig, addr string, ws *wireStats) opFunc {
	nt := len(s.tenants)
	return func(sender, i int) (float64, error) {
		t := i % nt
		pool := s.tenants[t].pool
		return serveOp(s.clients[sender][t], addr, t, pool[(i/nt+1)%len(pool)], cfg.Trace, ws)
	}
}

func runTinyCluster(w workloadSpec, cfg runConfig) (*runResult, error) {
	r := newResult(w.Name, cfg)
	s, setup, err := repeatSetup(cfg.Trace || cfg.Small, func() (*clusterStack, error) { return buildCluster(cfg) }, (*clusterStack).shutdown)
	if err != nil {
		return nil, err
	}
	r.Metrics["setup_s"] = setup

	senders := len(s.clients)
	capFor := time.Duration(capShare * float64(cfg.duration()))
	schedule := poissonSchedule(subSeed(cfg.Seed, seedSchedule), openRatePerSec, cfg.duration()-capFor)
	capOps := 0
	if cfg.MaxOps > 0 {
		capOps = cfg.MaxOps
		if len(schedule) > cfg.MaxOps {
			schedule = schedule[:cfg.MaxOps]
		}
	}

	ws := &wireStats{}
	if cfg.Trace {
		ws.spans = r
	}
	m := startMeter(cfg.Trace)
	capPhase := runClosed(wallClock, senders, capFor, capOps, s.op(cfg, s.gwAddr, ws))
	open := runOpen(wallClock, schedule, senders, s.op(cfg, s.gwAddr, ws))
	m.finish(r, len(capPhase.Samples)+len(open.Samples))
	r.countPhase("cap", capPhase)
	r.countPhase("open", open)
	r.reportLoad(w, open, 1, len(s.tenants), max(capPhase.maxErr(), open.maxErr()))
	if capPhase.Wall > 0 {
		r.Metrics["capacity_rps"] = float64(len(capPhase.ok())) / capPhase.Wall.Seconds()
		if cfg.Trace {
			r.Metrics["gen.capacity_rps"] = r.Metrics["capacity_rps"]
		}
	}
	ws.report(r)

	if cfg.Trace {
		s.hop(r, cfg)
	}
	t0 := s.tenants[0]
	if err := replay(t0.rec, false, encSeed(cfg, 0, 0), s.gwAddr, t0.pool[0], s.firstDigest); err != nil {
		r.fail("%v", err)
	}
	s.shutdown()
	if cfg.Trace {
		reportServing(r, s.reg)
		r.keepServerTraces(s.flight)
		s.reportGateway(r)
		if err := s.lab(r, cfg); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// hop estimates what the gateway adds to a request: the same tenant's
// requests alternately through the gateway and straight to the shard
// that owns the tenant, one connection, p50 against p50.
func (s *clusterStack) hop(r *runResult, cfg runConfig) {
	ring := gateway.NewRing()
	for name := range s.addrOf {
		ring.Add(name)
	}
	pairs := hopPairs
	if cfg.MaxOps > 0 {
		pairs = cfg.MaxOps
	}
	var wall [2][]float64 // via the gateway, direct
	discard := &wireStats{}
	for i := 0; i < pairs; i++ {
		t := i % len(s.tenants)
		owner, _ := ring.Pick(s.tenants[t].rec.Tenant)
		for route, addr := range []string{s.gwAddr, s.addrOf[owner]} {
			start := time.Now()
			pool := s.tenants[t].pool
			if _, err := serveOp(s.clients[0][t], addr, t, pool[i%len(pool)], false, discard); err != nil {
				r.fail("hop probe via %s: %v", addr, err)
				return
			}
			wall[route] = append(wall[route], ms(time.Since(start)))
		}
	}
	r.Metrics["gateway.hop_ms"] = median(wall[0]) - median(wall[1])
}

func (s *clusterStack) reportGateway(r *runResult) {
	snap := s.reg.Snapshot()
	r.Metrics["gateway.routed"] = familySum(snap, gateway.MetricRouted)
	r.Metrics["gateway.reroutes"] = familySum(snap, gateway.MetricReroutes)
	r.Metrics["gateway.refused"] = familySum(snap, gateway.MetricRefused)
}

// lab runs the crypto-layer laboratory on every tenant's network and
// reports the mean over the four, which is what one request of the
// round-robin mix costs. All four share one parameter set, so the kernel
// and ckks figures are taken once, on tenant 0's keys, and one table of
// operation costs serves all four closure checks.
func (s *clusterStack) lab(r *runResult, cfg runConfig) error {
	sp := labSpeedFor(cfg)
	weight := 1 / float64(len(s.tenants))
	// Every cache publishes cache_bytes on the one shared gauge, so the
	// registry holds whichever wrote last. The resident set is exact from
	// the plans: each shard holds every tenant's warm set, and tenant 0's
	// a second time for its default runtime.
	cacheBytes := int64(0)
	costs := newOpCosts()
	for t, tn := range s.tenants {
		ev, err := lolaEvaluable(tn, encSeed(cfg, 0, t))
		if err != nil {
			return err
		}
		if t == 0 {
			kernelMetrics(r, sp, ev.ctx.Params)
			ckksMetrics(r, sp, ev, costs)
			parallelSpeedup(r, sp, ev)
			cacheBytes += ev.cacheBytes
		}
		traceEvaluation(r, sp, ev, costs, weight, t)
		cacheBytes += ev.cacheBytes
	}
	r.Metrics["cache.bytes"] = float64(len(s.shards)) * float64(cacheBytes)
	return nil
}

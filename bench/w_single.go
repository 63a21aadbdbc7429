package main

// mnist_single: the paper's headline number. One client sends one MNIST
// image at a time over TCP to one mlaas.Server built with mlaas.Config{}
// exactly as shipped, serving the BSGS-compiled network from its
// auto-sized plaintext cache. Model, keys and client come from the public
// standard catalog, so the benchmark holds no ceremony of its own.

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"time"

	"fxhenn/internal/ckks"
	"fxhenn/internal/hecnn"
	"fxhenn/internal/mlaas"
	"fxhenn/internal/registry"
	"fxhenn/internal/telemetry"
)

const (
	seedWeights = iota + 1
	seedKeys
	seedEncryptor
	seedSchedule
	seedImages = 100 // image i of tenant t uses seedImages·(t+1) + i
)

// singleStack is one built and warmed mnist_single serving stack.
type singleStack struct {
	t      *tenant
	srv    *mlaas.Server
	addr   string
	client *mlaas.Client
	reg    *telemetry.Registry       // nil when untraced
	flight *telemetry.FlightRecorder // nil when untraced
	// firstDigest is the response digest of the client's first request
	// (the warm-up), replayed at the end of the run.
	firstDigest string
}

func (s *singleStack) shutdown() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s.srv.Shutdown(ctx) //nolint:errcheck // a forced close still releases the listener
}

func singleRecord(cfg runConfig) registry.Record {
	model := "mnist"
	if cfg.Small {
		model = "tiny"
	}
	return registry.Record{
		Tenant: "bench", Model: model, BSGS: true, Generation: 1,
		WeightSeed: subSeed(cfg.Seed, seedWeights), KeySeed: subSeed(cfg.Seed, seedKeys),
	}
}

func buildSingle(cfg runConfig) (*singleStack, error) {
	rec := singleRecord(cfg)
	t, err := newTenant(rec, 64, subSeed(cfg.Seed, seedImages))
	if err != nil {
		return nil, err
	}
	tm, err := mlaas.StandardCatalog()(rec)
	if err != nil {
		return nil, err
	}
	s := &singleStack{t: t}
	var mcfg mlaas.Config // defaults as shipped; telemetry only when traced
	if cfg.Trace {
		s.reg = telemetry.NewRegistry()
		mcfg.Metrics = s.reg
		s.flight = telemetry.NewFlightRecorder(telemetry.FlightConfig{SampleRate: 1})
		mcfg.Flight = s.flight
	}
	s.srv = mlaas.NewServerWithConfig(tm.Params, tm.Net, tm.Rlk, tm.Rtk, mcfg)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.addr = l.Addr().String()
	go s.srv.Serve(l) //nolint:errcheck // returns ErrServerClosed at shutdown

	if s.client, err = mlaas.StandardTenantClient(rec, subSeed(cfg.Seed, seedEncryptor)); err != nil {
		s.shutdown()
		return nil, err
	}
	// One server, no registry: the request goes out without a routing frame.
	s.client.Tenant, s.client.TenantGeneration = "", 0

	ex, err := infer(s.client, s.addr, t.pool[0].img, false, true)
	if err == nil {
		_, err = checkLogits(ex.logits, t.pool[0].want)
	}
	if err != nil {
		s.shutdown()
		return nil, fmt.Errorf("warm-up request: %w", err)
	}
	s.firstDigest = ex.conn.responseDigest()
	return s, nil
}

func runMNISTSingle(w workloadSpec, cfg runConfig) (*runResult, error) {
	r := newResult(w.Name, cfg)
	s, setup, err := repeatSetup(cfg.Trace || cfg.Small, func() (*singleStack, error) { return buildSingle(cfg) }, (*singleStack).shutdown)
	if err != nil {
		return nil, err
	}
	r.Metrics["setup_s"] = setup

	ws := &wireStats{}
	if cfg.Trace {
		ws.spans = r
	}
	m := startMeter(cfg.Trace)
	ph := runClosed(wallClock, 1, cfg.duration(), cfg.MaxOps, func(_, i int) (float64, error) {
		return serveOp(s.client, s.addr, 0, s.t.pool[(i+1)%len(s.t.pool)], cfg.Trace, ws)
	})
	m.finish(r, len(ph.Samples))
	r.countPhase("closed", ph)
	r.reportLoad(w, ph, 1, 1, ph.maxErr())
	ws.report(r)

	if err := replay(s.t.rec, true, subSeed(cfg.Seed, seedEncryptor), s.addr, s.t.pool[0], s.firstDigest); err != nil {
		r.fail("%v", err)
	}
	s.shutdown()
	if cfg.Trace {
		reportServing(r, s.reg)
		r.keepServerTraces(s.flight)
		s.srv, s.client = nil, nil // release the server's keys and cache before the lab builds its own
		runtime.GC()
		if err := singleLab(r, cfg, s.t); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// singleLab rebuilds the served network in process, serially, and runs
// the crypto-layer laboratory on it.
func singleLab(r *runResult, cfg runConfig, t *tenant) error {
	ev, err := lolaEvaluable(t, subSeed(cfg.Seed, seedEncryptor))
	if err != nil {
		return err
	}
	sp := labSpeedFor(cfg)
	kernelMetrics(r, sp, ev.ctx.Params)
	costs := newOpCosts()
	traceEvaluation(r, sp, ev, costs, 1, 0)
	ckksMetrics(r, sp, ev, costs)
	parallelSpeedup(r, sp, ev)
	return nil
}

// lolaEvaluable rebuilds a tenant's served network in process: the
// catalog's parameters, compiled network and evaluation keys (no worker
// pool attached, so evaluation is serial), the client half of the same
// seeded ceremony, a warmed auto-sized plaintext cache and one encrypted
// input. It evaluates once and checks the decrypted logits, so a lab that
// measured garbage cannot pass silently.
func lolaEvaluable(t *tenant, encSeed int64) (evaluable, error) {
	tm, err := mlaas.StandardCatalog()(t.rec)
	if err != nil {
		return evaluable{}, err
	}
	params, henet := tm.Params, tm.Net
	// Same seed, same draw order as the catalog: the secret key the
	// published evaluation keys were derived from.
	kg := ckks.NewKeyGenerator(params, t.rec.KeySeed)
	sk := kg.GenSecretKey()
	ctx := &hecnn.Context{
		Params:    params,
		Encoder:   ckks.NewEncoder(params),
		Encryptor: ckks.NewEncryptor(params, kg.GenPublicKey(sk), encSeed),
		Decryptor: ckks.NewDecryptor(params, sk),
		Eval:      ckks.NewEvaluator(params, tm.Rlk, tm.Rtk),
	}
	top := params.MaxLevel()
	cn := hecnn.NewCompiledNetwork(henet, params, ctx.Encoder, hecnn.AutoPlaintextCacheBytes(henet, params, top))
	cn.Warm(top)
	in := t.pool[0]
	var cts []*hecnn.CT
	for _, v := range henet.PackInput(in.img) {
		cts = append(cts, ctx.EncryptVector(v))
	}
	out := henet.EvaluateEncrypted(cn.Backend(ctx, nil), cts)
	if _, err := checkLogits(ctx.DecryptVector(out), in.want); err != nil {
		return evaluable{}, fmt.Errorf("in-process evaluation of %s: %w", t.rec.Tenant, err)
	}
	return evaluable{
		ctx:         ctx,
		backend:     func(rec *hecnn.Recorder) hecnn.Backend { return cn.Backend(ctx, rec) },
		eval:        func(b hecnn.Backend) int { return henet.EvaluateEncrypted(b, cts).Level() },
		encodeCalls: cn.EncodeCalls,
		rotations:   henet.RotationsNeeded(top),
		cacheBytes:  hecnn.PlanCacheBytes(henet, params, top),
	}, nil
}

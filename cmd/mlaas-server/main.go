// Command mlaas-server runs the hardened MLaaS inference server on a TCP
// listener with flag-configurable limits: concurrency slots, an optional
// admission queue (-queue-depth) where bursts wait out saturation instead
// of bouncing busy, per-I/O deadlines, and a total per-request budget.
// SIGINT/SIGTERM triggers a graceful drain — in-flight inferences
// complete, new connections are refused with a typed shutting-down
// status, and the drop count is reported if the drain deadline expires.
//
// The served model comes from the standard catalog (mlaas.StandardCatalog)
// exactly as a registry tenant's does: -net names the model, -seed seeds
// its weights and its key ceremony (the batch ring's ceremony uses
// seed+1), so a client deriving from the same record —
// mlaas.StandardTenantClient(registry.Record{Model: net, WeightSeed: seed,
// KeySeed: seed}, …) with the routing frame cleared — holds the matching
// secret key. The server never does. `go run ./examples/mlaas` runs a
// client against an in-process server.
//
// Every flag's -h text states its default and its off value. In brief:
// -cache-bytes bounds the pre-encoded weight cache behind zero-encode
// steady state; -workers sizes the evaluation pool (results are
// bit-identical at any size); -bsgs compiles linear layers as
// baby-step/giant-step diagonal transforms; -batch-size/-batch-window
// coalesce concurrent requests into one position-major evaluation on a
// small derived ring; -metrics-addr serves Prometheus text, JSON and
// pprof, with -slow-threshold and -digest-interval logging over them;
// -trace-ring/-trace-sample/-trace-log keep tail-sampled request traces
// at /debug/traces, stitched to wire-propagated client trace contexts;
// -shed-ewma refuses requests whose projected completion misses their
// budget, with a retry-after-ms hint; -health-addr serves /healthz and
// /readyz; -registry loads tenant records from an on-disk JSON registry,
// so routed requests run on their tenant's runtime and unrouted ones on
// the model above.
//
// Usage:
//
//	mlaas-server -addr 127.0.0.1:7100 -max-concurrent 4 -io-timeout 5s
//	mlaas-server -batch-size 8 -batch-window 50ms
//	mlaas-server -metrics-addr 127.0.0.1:7190 -slow-threshold 5s -digest-interval 30s
//	mlaas-server -shed-ewma 0.3 -queue-depth 8 -health-addr 127.0.0.1:7191
//	mlaas-server -registry tenants.json
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"fxhenn/internal/mlaas"
	"fxhenn/internal/registry"
	"fxhenn/internal/telemetry"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:0", "listen address")
	netName := flag.String("net", "tiny", "network: tiny, tinyconv or mnist")
	seed := flag.Int64("seed", 1, "weight/key seed")
	maxConcurrent := flag.Int("max-concurrent", 4, "evaluation slots before requests are refused busy")
	queueDepth := flag.Int("queue-depth", 0, "admission queue: requests beyond the evaluation slots wait here, up to their budget, before busy (0 = fail fast)")
	cacheBytes := flag.Int64("cache-bytes", 0, "byte budget for the encoded-weight plaintext cache (0 = auto-size from the compiled operand set, negative disables caching)")
	workers := flag.Int("workers", 0, "evaluation worker pool size shared by all requests (0 = GOMAXPROCS, 1 = serial)")
	bsgs := flag.Bool("bsgs", false, "compile linear layers as BSGS diagonal transforms (baby-step/giant-step rotations; falls back to the ladder where it loses)")
	ioTimeout := flag.Duration("io-timeout", 30*time.Second, "rolling per-read/write deadline")
	requestBudget := flag.Duration("request-budget", 2*time.Minute, "total wall-clock budget per request")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight requests")
	batchSize := flag.Int("batch-size", 0, "enable cross-request batched serving: coalesce up to this many concurrent requests into one position-major evaluation (0 disables)")
	batchWindow := flag.Duration("batch-window", 20*time.Millisecond, "how long the oldest batched request waits for co-travellers before the batch flushes anyway (whole milliseconds)")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /metrics.json and /debug/pprof/ on this address (empty disables)")
	slowThreshold := flag.Duration("slow-threshold", 0, "log requests slower than this with their per-layer breakdown (0 disables)")
	digestInterval := flag.Duration("digest-interval", 0, "print a one-line telemetry digest at this interval (0 disables)")
	shedEWMA := flag.Float64("shed-ewma", 0, "EWMA smoothing factor in (0,1] for deadline-aware load shedding; busy refusals then carry retry-after-ms hints (0 disables)")
	traceRing := flag.Int("trace-ring", 0, "flight recorder capacity: keep this many error/slow/shed/degraded traces (and as many sampled healthy ones) for /debug/traces (0 disables tracing)")
	traceSample := flag.Float64("trace-sample", 1, "probability a healthy trace is kept by the flight recorder (flagged traces are always kept)")
	traceLog := flag.String("trace-log", "", "append every kept trace as one JSON line to this file (empty disables; requires -trace-ring)")
	healthAddr := flag.String("health-addr", "", "serve /healthz and /readyz on this address (empty disables; health is also mounted on -metrics-addr)")
	registryPath := flag.String("registry", "", "tenant registry JSON file: enable multi-tenant serving with per-tenant models, keys, quotas and batch domains from this on-disk registry (empty = single-tenant)")
	flag.Parse()

	// The key ceremony runs inside the catalog: it derives the secret key
	// transiently and hands the server only evaluation keys.
	tm, err := mlaas.StandardCatalog()(registry.Record{
		Model: *netName, WeightSeed: *seed, KeySeed: *seed, BSGS: *bsgs,
		Batch: registry.Batch{Size: *batchSize, WindowMS: int(*batchWindow / time.Millisecond)},
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "model: %v\n", err)
		os.Exit(2)
	}

	var reg *telemetry.Registry
	if *metricsAddr != "" {
		reg = telemetry.NewRegistry()
	}
	var flight *telemetry.FlightRecorder
	if *traceRing > 0 {
		fcfg := telemetry.FlightConfig{Capacity: *traceRing, SampleRate: *traceSample}
		if *traceLog != "" {
			f, err := os.OpenFile(*traceLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				fmt.Fprintf(os.Stderr, "trace log: %v\n", err)
				os.Exit(1)
			}
			defer f.Close()
			fcfg.Log = f
		}
		flight = telemetry.NewFlightRecorder(fcfg)
	}
	var tenantReg *registry.Registry
	if *registryPath != "" {
		store, err := registry.OpenFileStore(*registryPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "registry: %v\n", err)
			os.Exit(1)
		}
		tenantReg = registry.New(store)
	}

	server := mlaas.NewServerWithConfig(tm.Params, tm.Net, tm.Rlk, tm.Rtk, mlaas.Config{
		MaxConcurrent:        *maxConcurrent,
		QueueDepth:           *queueDepth,
		CacheBytes:           *cacheBytes,
		IOTimeout:            *ioTimeout,
		RequestBudget:        *requestBudget,
		Workers:              *workers,
		Metrics:              reg,
		SlowRequestThreshold: *slowThreshold,
		ShedEWMA:             *shedEWMA,
		Batch:                tm.Batch,
		Flight:               flight,
		Registry:             tenantReg,
	})

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "listen: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("mlaas-server: %s on %s (slots=%d workers=%d io-timeout=%v budget=%v)\n",
		tm.Net.Name, l.Addr(), *maxConcurrent, server.PoolStats().Workers, *ioTimeout, *requestBudget)
	if tm.Batch != nil {
		fmt.Printf("mlaas-server: batched serving on logN=%d ring (batch-size=%d batch-window=%v)\n",
			tm.Batch.Params.LogN, *batchSize, tm.Batch.Window)
	}
	if tenantReg != nil {
		recs, err := tenantReg.List()
		if err != nil {
			fmt.Fprintf(os.Stderr, "registry list: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("mlaas-server: multi-tenant serving from registry %s (%d tenants)\n",
			*registryPath, len(recs))
	}

	if reg != nil {
		ml, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "metrics listen: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("mlaas-server: metrics and pprof on http://%s/metrics\n", ml.Addr())
		mux := telemetry.NewMux(reg)
		server.RegisterHealth(mux)
		if flight != nil {
			mux.Handle("/debug/traces", flight.Handler())
			fmt.Printf("mlaas-server: flight recorder on http://%s/debug/traces (ring=%d sample=%g)\n",
				ml.Addr(), *traceRing, *traceSample)
		}
		go func() {
			if err := http.Serve(ml, mux); err != nil {
				fmt.Fprintf(os.Stderr, "mlaas-server: metrics server stopped: %v\n", err)
			}
		}()
	}
	if *healthAddr != "" {
		hl, err := net.Listen("tcp", *healthAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "health listen: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("mlaas-server: health on http://%s/readyz\n", hl.Addr())
		hmux := http.NewServeMux()
		server.RegisterHealth(hmux)
		go func() {
			if err := http.Serve(hl, hmux); err != nil {
				fmt.Fprintf(os.Stderr, "mlaas-server: health server stopped: %v\n", err)
			}
		}()
	}

	digestStop := make(chan struct{})
	defer close(digestStop)
	go server.RunDigest(os.Stdout, *digestInterval, digestStop)

	serveErr := make(chan error, 1)
	go func() { serveErr <- server.Serve(l) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case s := <-sig:
		fmt.Printf("mlaas-server: received %v, draining\n", s)
	case err := <-serveErr:
		fmt.Fprintf(os.Stderr, "mlaas-server: serve failed: %v\n", err)
		os.Exit(1)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := server.Shutdown(ctx); err != nil {
		st := server.Stats()
		fmt.Fprintf(os.Stderr, "mlaas-server: drain incomplete: %v (dropped=%d)\n", err, st.Dropped)
		os.Exit(1)
	}
	st := server.Stats()
	fmt.Printf("mlaas-server: drained; served=%d rejected=%d bad=%d panics=%d dropped=%d\n",
		st.Served, st.Rejected, st.BadRequests, st.Panics, st.Dropped)
}

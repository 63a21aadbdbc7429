// Command mlaas-server runs the hardened MLaaS inference server on a TCP
// listener with flag-configurable limits: concurrency slots, an optional
// admission queue (-queue-depth) where bursts wait out saturation instead
// of bouncing busy, per-I/O deadlines, and a total per-request budget.
// SIGINT/SIGTERM triggers a graceful drain — in-flight inferences
// complete, new connections are refused with a typed shutting-down
// status, and the drop count is reported if the drain deadline expires.
//
// Serve-path caching: the server pre-encodes every weight/bias plaintext
// at the exact levels and scales the compiled plan consumes, so
// steady-state requests perform zero encodings; -cache-bytes bounds the
// resident cache (0 auto-sizes it from the compiled operand set so even
// the BSGS diagonal set fits, negative disables it).
//
// Parallelism: -workers sizes the shared evaluation worker pool (0 =
// GOMAXPROCS, 1 = serial; results are bit-identical either way), and
// -bsgs compiles linear layers as baby-step/giant-step diagonal
// transforms (ladder fallback where BSGS would lose).
//
// The reproduction keeps key generation in-process (the demo client and
// server share a key ceremony at startup), so -demo N serves N local
// client inferences and then drains; without -demo the server runs until
// a signal arrives.
//
// Batched serving: -batch-size N coalesces up to N concurrent requests
// into one position-major CryptoNets-style evaluation on a small derived
// ring (one ciphertext per tensor position, slot b = request b), with
// -batch-window bounding how long the oldest request waits for
// co-travellers; a lone request flushes as a batch of one. With -demo the
// demo inferences run concurrently so the scheduler actually batches.
//
// Telemetry: -metrics-addr serves the metrics registry (Prometheus text
// at /metrics, JSON at /metrics.json) plus net/http/pprof under
// /debug/pprof/; -slow-threshold enables the structured slow-request log
// with its per-layer breakdown; -digest-interval prints a periodic
// one-line operational digest (req/s, evaluate p50/p99, busy refusals).
//
// Tracing: -trace-ring N attaches a tail-sampling flight recorder
// keeping the last N error/slow/shed/degraded traces (plus a
// -trace-sample fraction of healthy ones), served as JSON at
// /debug/traces on the metrics mux; -trace-log appends every kept trace
// to a JSONL file. Wire-propagated trace contexts from traced clients
// stitch into the recorded spans; with tracing off the wire protocol
// and the serve path are byte-identical to the untraced build.
//
// Resilience: -shed-ewma enables deadline-aware load shedding — the
// server tracks an EWMA of evaluation latency and refuses requests whose
// projected completion already overshoots their budget, attaching a
// retry-after-ms hint to every busy refusal so clients back off for a
// useful interval instead of guessing. -health-addr serves the
// /healthz + /readyz pair on its own listener (both are also mounted on
// the metrics mux when -metrics-addr is set). -endpoints takes a
// comma-separated list of extra replica addresses; the demo client then
// drives InferHedged across this server plus those replicas — per-replica
// circuit breakers, in-round failover, and latency-triggered hedging —
// with CRC frame checking enabled.
//
// Usage:
//
//	mlaas-server -addr 127.0.0.1:7100 -max-concurrent 4
//	mlaas-server -demo 3 -io-timeout 5s
//	mlaas-server -batch-size 8 -batch-window 50ms -demo 8
//	mlaas-server -metrics-addr 127.0.0.1:7190 -slow-threshold 5s -digest-interval 30s
//	mlaas-server -shed-ewma 0.3 -queue-depth 8 -health-addr 127.0.0.1:7191
//	mlaas-server -demo 3 -endpoints 10.0.0.2:7100,10.0.0.3:7100
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"fxhenn/internal/ckks"
	"fxhenn/internal/cnn"
	"fxhenn/internal/hecnn"
	"fxhenn/internal/mlaas"
	"fxhenn/internal/registry"
	"fxhenn/internal/telemetry"
)

// modelsFor returns the standard catalog when multi-tenant serving is
// enabled; Config.Models must stay nil otherwise.
func modelsFor(reg *registry.Registry) mlaas.ModelBuilder {
	if reg == nil {
		return nil
	}
	return mlaas.StandardCatalog()
}

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
	demo := flag.Int("demo", 0, "serve N in-process demo inferences, then drain and exit")
	batchSize := flag.Int("batch-size", 0, "enable cross-request batched serving: coalesce up to this many concurrent requests into one position-major evaluation (0 disables)")
	batchWindow := flag.Duration("batch-window", 20*time.Millisecond, "how long the oldest batched request waits for co-travellers before the batch flushes anyway")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /metrics.json and /debug/pprof/ on this address (empty disables)")
	slowThreshold := flag.Duration("slow-threshold", 0, "log requests slower than this with their per-layer breakdown (0 disables)")
	digestInterval := flag.Duration("digest-interval", 0, "print a one-line telemetry digest at this interval (0 disables)")
	shedEWMA := flag.Float64("shed-ewma", 0, "EWMA smoothing factor in (0,1] for deadline-aware load shedding; busy refusals then carry retry-after-ms hints (0 disables)")
	traceRing := flag.Int("trace-ring", 0, "flight recorder capacity: keep this many error/slow/shed/degraded traces (and as many sampled healthy ones) for /debug/traces (0 disables tracing)")
	traceSample := flag.Float64("trace-sample", 1, "probability a healthy trace is kept by the flight recorder (flagged traces are always kept)")
	traceLog := flag.String("trace-log", "", "append every kept trace as one JSON line to this file (empty disables; requires -trace-ring)")
	healthAddr := flag.String("health-addr", "", "serve /healthz and /readyz on this address (empty disables; health is also mounted on -metrics-addr)")
	endpoints := flag.String("endpoints", "", "comma-separated extra replica addresses; the demo client hedges and fails over across this server plus these (empty = single-endpoint retry demo)")
	registryPath := flag.String("registry", "", "tenant registry JSON file: enable multi-tenant serving with per-tenant models, keys, quotas and batch domains from this on-disk registry (empty = single-tenant)")
	flag.Parse()

	var (
		pnet   *cnn.Network
		params ckks.Parameters
	)
	switch *netName {
	case "tiny":
		pnet = cnn.NewTinyNet()
		params = ckks.NewParameters(8, 30, 7, 45)
	case "tinyconv":
		pnet = cnn.NewTinyConvNet()
		params = ckks.NewParameters(8, 30, 7, 45)
	case "mnist":
		pnet = cnn.NewMNISTNet()
		params = ckks.ParamsMNIST()
	default:
		fmt.Fprintf(os.Stderr, "unknown network %q\n", *netName)
		os.Exit(2)
	}
	pnet.InitWeights(*seed)
	henet := hecnn.CompileWith(pnet, params.Slots(), hecnn.Options{BSGS: *bsgs})

	// Key ceremony: the secret key stays with the client role; the server
	// receives only evaluation keys.
	kg := ckks.NewKeyGenerator(params, *seed)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	rlk := kg.GenRelinearizationKey(sk)
	rtk := kg.GenRotationKeys(sk, henet.RotationsNeeded(params.MaxLevel()), false)

	// Batched serving: the batch path runs on its own ring — the smallest
	// one whose slots cover the batch size — with its own key ceremony.
	// The batch secret key stays with the client role too.
	var (
		batchCfg *mlaas.BatchConfig
		bparams  ckks.Parameters
		bnet     *hecnn.BatchedNetwork
		bpk      *ckks.PublicKey
		bsk      *ckks.SecretKey
	)
	if *batchSize > 0 {
		var err error
		bparams, err = hecnn.BatchedParams(params, *batchSize)
		if err != nil {
			fmt.Fprintf(os.Stderr, "batch params: %v\n", err)
			os.Exit(2)
		}
		bnet, err = hecnn.CompileBatched(pnet, bparams.Slots())
		if err != nil {
			fmt.Fprintf(os.Stderr, "batch compile: %v\n", err)
			os.Exit(2)
		}
		bkg := ckks.NewKeyGenerator(bparams, *seed+1)
		bsk = bkg.GenSecretKey()
		bpk = bkg.GenPublicKey(bsk)
		batchCfg = &mlaas.BatchConfig{
			Params:     bparams,
			Net:        bnet,
			Rlk:        bkg.GenRelinearizationKey(bsk),
			Rtk:        bkg.GenRotationKeys(bsk, hecnn.BatchRotations(*batchSize), false),
			Size:       *batchSize,
			Window:     *batchWindow,
			CacheBytes: *cacheBytes,
		}
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
	// Multi-tenant serving: tenants resolve lazily from the on-disk
	// registry through the standard model catalog; untenanted requests
	// still hit the single-tenant network configured above.
	var tenantReg *registry.Registry
	if *registryPath != "" {
		store, err := registry.OpenFileStore(*registryPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "registry: %v\n", err)
			os.Exit(1)
		}
		tenantReg = registry.New(store)
	}

	server := mlaas.NewServerWithConfig(params, henet, rlk, rtk, mlaas.Config{
		MaxConcurrent:        *maxConcurrent,
		QueueDepth:           *queueDepth,
		CacheBytes:           *cacheBytes,
		IOTimeout:            *ioTimeout,
		RequestBudget:        *requestBudget,
		Workers:              *workers,
		Metrics:              reg,
		SlowRequestThreshold: *slowThreshold,
		ShedEWMA:             *shedEWMA,
		Batch:                batchCfg,
		Flight:               flight,
		Registry:             tenantReg,
		Models:               modelsFor(tenantReg),
	})

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "listen: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("mlaas-server: %s on %s (slots=%d workers=%d io-timeout=%v budget=%v)\n",
		pnet.Name, l.Addr(), *maxConcurrent, server.PoolStats().Workers, *ioTimeout, *requestBudget)
	if batchCfg != nil {
		fmt.Printf("mlaas-server: batched serving on logN=%d ring (batch-size=%d batch-window=%v)\n",
			bparams.LogN, *batchSize, *batchWindow)
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

	if *demo > 0 {
		switch {
		case batchCfg != nil:
			runBatchedDemo(bparams, pnet, bnet, bpk, bsk, l.Addr().String(), *demo)
		case *endpoints != "":
			runHedgedDemo(params, pnet, henet, pk, sk,
				append([]string{l.Addr().String()}, strings.Split(*endpoints, ",")...), *demo)
		default:
			runDemo(params, pnet, henet, pk, sk, l.Addr().String(), *demo)
		}
	} else {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
		select {
		case s := <-sig:
			fmt.Printf("mlaas-server: received %v, draining\n", s)
		case err := <-serveErr:
			fmt.Fprintf(os.Stderr, "mlaas-server: serve failed: %v\n", err)
			os.Exit(1)
		}
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

// runDemo plays the client role against the live server: encrypt, ship,
// decrypt, compare to plaintext inference, retrying through transient
// refusals with the backoff policy.
func runDemo(params ckks.Parameters, pnet *cnn.Network, henet *hecnn.Network,
	pk *ckks.PublicKey, sk *ckks.SecretKey, addr string, n int) {
	client := mlaas.NewClient(params, henet, pk, sk, 2)
	dial := func(ctx context.Context) (net.Conn, error) {
		var d net.Dialer
		return d.DialContext(ctx, "tcp", addr)
	}
	for i := 0; i < n; i++ {
		img := cnn.NewTensor(pnet.InC, pnet.InH, pnet.InW)
		rng := rand.New(rand.NewSource(int64(100 + i)))
		for j := range img.Data {
			img.Data[j] = rng.Float64()
		}
		want := pnet.Infer(img)

		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		start := time.Now()
		got, err := client.InferRetry(ctx, dial, img, mlaas.RetryPolicy{Seed: int64(i)})
		cancel()
		if err != nil {
			fmt.Fprintf(os.Stderr, "demo inference %d: %v\n", i, err)
			os.Exit(1)
		}
		fmt.Printf("demo inference %d: %v, class %d (plaintext %d)\n",
			i, time.Since(start).Round(time.Millisecond), cnn.Argmax(got), cnn.Argmax(want))
	}
	fmt.Printf("demo traffic: %d bytes sent, %d received, %d retries\n",
		client.BytesSent, client.BytesReceived, client.Retries)
}

// runHedgedDemo plays the client role across a replica set: every
// inference goes through InferHedged, so per-replica circuit breakers,
// in-round failover, and latency-triggered hedging are all live, and CRC
// frame checking catches any transit corruption. The local server is
// always the first endpoint; the extras may be down — the fleet answers
// as long as one replica does.
func runHedgedDemo(params ckks.Parameters, pnet *cnn.Network, henet *hecnn.Network,
	pk *ckks.PublicKey, sk *ckks.SecretKey, addrs []string, n int) {
	client := mlaas.NewClient(params, henet, pk, sk, 2)
	client.FrameCheck = true
	eps := make([]mlaas.Endpoint, 0, len(addrs))
	for _, a := range addrs {
		if a = strings.TrimSpace(a); a != "" {
			eps = append(eps, mlaas.TCPEndpoint("", a))
		}
	}
	policy := mlaas.FailoverPolicy{Hedge: true}
	for i := 0; i < n; i++ {
		img := cnn.NewTensor(pnet.InC, pnet.InH, pnet.InW)
		rng := rand.New(rand.NewSource(int64(100 + i)))
		for j := range img.Data {
			img.Data[j] = rng.Float64()
		}
		want := pnet.Infer(img)

		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		start := time.Now()
		got, err := client.InferHedged(ctx, eps, img, policy)
		cancel()
		if err != nil {
			fmt.Fprintf(os.Stderr, "hedged demo inference %d: %v\n", i, err)
			os.Exit(1)
		}
		fmt.Printf("hedged demo inference %d: %v, class %d (plaintext %d)\n",
			i, time.Since(start).Round(time.Millisecond), cnn.Argmax(got), cnn.Argmax(want))
	}
	for _, ep := range eps {
		fmt.Printf("hedged demo endpoint %s: breaker %s\n", ep.Name, client.EndpointBreakerState(ep.Name))
	}
	fmt.Printf("hedged demo traffic: %d bytes sent, %d received, %d retries, %d hedges\n",
		client.BytesSent, client.BytesReceived, client.Retries, client.Hedges)
}

// runBatchedDemo fires n concurrent batched inferences so the server's
// scheduler actually coalesces them into shared evaluations, then checks
// each client got its own image's class back.
func runBatchedDemo(bparams ckks.Parameters, pnet *cnn.Network, bnet *hecnn.BatchedNetwork,
	bpk *ckks.PublicKey, bsk *ckks.SecretKey, addr string, n int) {
	start := time.Now()
	var wg sync.WaitGroup
	failed := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			img := cnn.NewTensor(pnet.InC, pnet.InH, pnet.InW)
			rng := rand.New(rand.NewSource(int64(100 + i)))
			for j := range img.Data {
				img.Data[j] = rng.Float64()
			}
			want := cnn.Argmax(pnet.Infer(img))

			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				failed[i] = err
				return
			}
			defer conn.Close()
			client := mlaas.NewBatchClient(bparams, bnet, bpk, bsk, int64(200+i))
			got, err := client.Infer(ctx, conn, img)
			if err != nil {
				failed[i] = err
				return
			}
			fmt.Printf("batched demo inference %d: class %d (plaintext %d)\n", i, cnn.Argmax(got), want)
		}(i)
	}
	wg.Wait()
	for i, err := range failed {
		if err != nil {
			fmt.Fprintf(os.Stderr, "batched demo inference %d: %v\n", i, err)
			os.Exit(1)
		}
	}
	fmt.Printf("batched demo: %d concurrent inferences in %v\n", n, time.Since(start).Round(time.Millisecond))
}

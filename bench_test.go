package fxhenn

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (DESIGN.md §5 maps each to its experiment). Each benchmark
// regenerates its table/figure through the experiment engine; run with
//
//	go test -bench=. -benchmem
//
// and use cmd/experiments to print the actual tables.

import (
	"context"
	"io"
	"net"
	"runtime"
	"testing"

	"fxhenn/internal/ckks"
	"fxhenn/internal/cnn"
	"fxhenn/internal/dse"
	"fxhenn/internal/experiments"
	"fxhenn/internal/fpga"
	"fxhenn/internal/hecnn"
	"fxhenn/internal/hemodel"
	"fxhenn/internal/mlaas"
	"fxhenn/internal/modarith"
	"fxhenn/internal/parallel"
	"fxhenn/internal/profile"
	"fxhenn/internal/ring"
	"fxhenn/internal/telemetry"
	"fxhenn/internal/workload"
)

var benchEnv *experiments.Env

func env(b *testing.B) *experiments.Env {
	b.Helper()
	if benchEnv == nil {
		benchEnv = experiments.NewEnv()
	}
	return benchEnv
}

func BenchmarkTable1_OpModules(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.TableI(io.Discard)
	}
}

func BenchmarkTable2_PreliminaryDesign(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.TableII(io.Discard)
	}
}

func BenchmarkTable3_BRAMImpact(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.TableIII(io.Discard)
	}
}

func BenchmarkTable4_MACComparison(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.TableIV(io.Discard)
	}
}

func BenchmarkTable5_DSEConfigs(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.TableV(io.Discard)
	}
}

func BenchmarkTable6_Networks(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.TableVI(io.Discard)
	}
}

func BenchmarkTable7_EndToEnd(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.TableVII(io.Discard)
	}
}

func BenchmarkTable8_ConvVsFPL21(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.TableVIII(io.Discard)
	}
}

func BenchmarkTable9_BaselineVsFxHENN(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.TableIX(io.Discard)
	}
}

func BenchmarkFig7_PerLayerBRAM(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Fig7(io.Discard)
	}
}

func BenchmarkFig8_PerLayerDSP(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Fig8(io.Discard)
	}
}

func BenchmarkFig9_ParetoFrontier(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Fig9(io.Discard)
	}
}

func BenchmarkFig10_Parallelism(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Fig10(io.Discard)
	}
}

// --- component-level benchmarks ---

// BenchmarkDSE_MNIST measures one full exhaustive exploration (the paper
// reports "a few seconds" for a few thousand design points; ours runs in
// milliseconds).
func BenchmarkDSE_MNIST(b *testing.B) {
	p := profile.PaperMNIST()
	for i := 0; i < b.N; i++ {
		if _, err := dse.Explore(p, fpga.ACU9EG); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDSE_CIFAR10 explores the large network's space.
func BenchmarkDSE_CIFAR10(b *testing.B) {
	p := profile.PaperCIFAR10()
	for i := 0; i < b.N; i++ {
		if _, err := dse.Explore(p, fpga.ACU15EG); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLatencyModel measures one network latency evaluation (the DSE
// inner loop).
func BenchmarkLatencyModel(b *testing.B) {
	p := profile.PaperMNIST()
	g := hemodel.GeometryFor(p)
	c := hemodel.DefaultConfig()
	for i := 0; i < b.N; i++ {
		c.NetworkLatencyCycles(p, g)
	}
}

// BenchmarkHECNNDryRun measures the op-count dry run of FxHENN-CIFAR10
// (~128K recorded HE operations).
func BenchmarkHECNNDryRun(b *testing.B) {
	net := hecnn.Compile(cnn.NewCIFAR10Net(), 8192)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Count(7)
	}
}

// BenchmarkEncryptedTinyInference measures a full functional encrypted
// inference at reduced geometry (conv→square→fc→square→fc on N=256).
func BenchmarkEncryptedTinyInference(b *testing.B) {
	params := ckks.NewParameters(8, 30, 7, 45)
	pnet := cnn.NewTinyNet()
	pnet.InitWeights(1)
	net := hecnn.Compile(pnet, params.Slots())
	ctx := hecnn.NewContext(params, 2, net.RotationsNeeded(params.MaxLevel()))
	img := cnn.NewTensor(1, 8, 8)
	for i := range img.Data {
		img.Data[i] = float64(i%7) / 7
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Run(ctx, img)
	}
}

// BenchmarkAblations runs the design-choice ablation suite (fine vs coarse
// pipelining, buffer reuse, module reuse, DRAM spill).
func BenchmarkAblations(b *testing.B) {
	p := profile.PaperMNIST()
	for i := 0; i < b.N; i++ {
		if _, err := dse.Ablate(p, fpga.ACU9EG); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMLaaSInference measures one full client-server encrypted
// inference round trip over an in-memory connection (reduced geometry).
func BenchmarkMLaaSInference(b *testing.B) {
	params := ckks.NewParameters(8, 30, 7, 45)
	pnet := cnn.NewTinyNet()
	pnet.InitWeights(1)
	henet := hecnn.Compile(pnet, params.Slots())
	kg := ckks.NewKeyGenerator(params, 2)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	rlk := kg.GenRelinearizationKey(sk)
	rtk := kg.GenRotationKeys(sk, henet.RotationsNeeded(params.MaxLevel()), false)
	server := mlaas.NewServer(params, henet, rlk, rtk)
	client := mlaas.NewClient(params, henet, pk, sk, 3)
	img := workload.Image(1, 8, 8, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cliConn, srvConn := net.Pipe()
		done := make(chan struct{})
		go func() {
			defer close(done)
			defer srvConn.Close()
			server.Handle(srvConn)
		}()
		if _, err := client.Infer(context.Background(), cliConn, img); err != nil {
			b.Fatal(err)
		}
		cliConn.Close()
		<-done
	}
}

// benchWireInference measures the full wire exchange — encrypt, ship
// over net.Pipe, evaluate, decrypt — with tracing either absent (the
// byte-identical legacy path) or fully attached on both sides: flight
// recorders, exemplar-linked metrics, and wire-propagated trace
// contexts. The Inference_Tiny_Wire / Inference_Tiny_WireTraced pair is
// the tracing-overhead row PERFORMANCE.md §8 reports; benchjson prints
// the ratio whenever both rows are in a run.
func benchWireInference(b *testing.B, traced bool) {
	params := ckks.NewParameters(8, 30, 7, 45)
	pnet := cnn.NewTinyNet()
	pnet.InitWeights(1)
	henet := hecnn.Compile(pnet, params.Slots())
	kg := ckks.NewKeyGenerator(params, 2)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	rlk := kg.GenRelinearizationKey(sk)
	rtk := kg.GenRotationKeys(sk, henet.RotationsNeeded(params.MaxLevel()), false)
	cfg := mlaas.Config{}
	if traced {
		cfg.Flight = telemetry.NewFlightRecorder(telemetry.FlightConfig{SampleRate: 1})
		cfg.Metrics = telemetry.NewRegistry()
	}
	server := mlaas.NewServerWithConfig(params, henet, rlk, rtk, cfg)
	client := mlaas.NewClient(params, henet, pk, sk, 3)
	if traced {
		client.Flight = telemetry.NewFlightRecorder(telemetry.FlightConfig{SampleRate: 1})
	}
	img := workload.Image(1, 8, 8, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cliConn, srvConn := net.Pipe()
		done := make(chan struct{})
		go func() {
			defer close(done)
			defer srvConn.Close()
			server.Handle(srvConn)
		}()
		if _, err := client.Infer(context.Background(), cliConn, img); err != nil {
			b.Fatal(err)
		}
		cliConn.Close()
		<-done
	}
}

func BenchmarkInference_Tiny_Wire(b *testing.B) { benchWireInference(b, false) }

func BenchmarkInference_Tiny_WireTraced(b *testing.B) { benchWireInference(b, true) }

// benchInference measures one full functional encrypted inference
// (pack → encrypt → evaluate → decrypt) for a network/parameter pair.
// These are the rows of BENCH_inference.json (make bench). workers sizes
// the evaluation worker pool (0 = GOMAXPROCS, 1 = serial — no pool), and
// opts selects the compile mode; the _Parallel and _BSGS benchmark
// variants differ from the base rows only in those two knobs, so the
// ratio base/variant is the speedup PERFORMANCE.md reports.
func benchInference(b *testing.B, pnet *cnn.Network, params ckks.Parameters, workers int, opts hecnn.Options) {
	if workers != 1 {
		params.AttachPool(parallel.New(workers))
	}
	pnet.InitWeights(1)
	net := hecnn.CompileWith(pnet, params.Slots(), opts)
	ctx := hecnn.NewContext(params, 2, net.RotationsNeeded(params.MaxLevel()))
	img := cnn.NewTensor(pnet.InC, pnet.InH, pnet.InW)
	for i := range img.Data {
		img.Data[i] = float64(i%7) / 7
	}
	// Drain the previous benchmark's garbage (a full-suite run leaves
	// gigabytes behind) so its collection isn't charged to this row.
	runtime.GC()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Run(ctx, img)
	}
}

// benchInferenceCached is benchInference through a warmed
// hecnn.CompiledNetwork: every weight/bias plaintext is pre-encoded at
// its consumed (level, scale), so the loop performs zero Encoder.Encode
// calls for model operands. Same serial workers=1 setup as the base rows,
// so the base/_Cached ratio isolates the encoding saved per inference.
// cacheBytes is the plaintext-cache budget (0 = the 256 MiB default,
// negative = unbounded): a budget smaller than the operand set thrashes
// the LRU — every request re-encodes evicted entries — which is slower
// than not caching at all, so rows whose operand set exceeds the
// default must size it explicitly, exactly as a server operator must
// size -cache-bytes.
func benchInferenceCached(b *testing.B, pnet *cnn.Network, params ckks.Parameters, cacheBytes int64, opts hecnn.Options) {
	pnet.InitWeights(1)
	net := hecnn.CompileWith(pnet, params.Slots(), opts)
	ctx := hecnn.NewContext(params, 2, net.RotationsNeeded(params.MaxLevel()))
	cn := hecnn.NewCompiledNetwork(net, params, ctx.Encoder, cacheBytes)
	cn.Warm(params.MaxLevel())
	img := cnn.NewTensor(pnet.InC, pnet.InH, pnet.InW)
	for i := range img.Data {
		img.Data[i] = float64(i%7) / 7
	}
	// One untimed inference reaches the steady state the row documents:
	// cache hits verified warm, allocator spans grown to working-set
	// size. A cold first iteration otherwise dominates -benchtime=1x.
	cn.Run(ctx, img)
	// Drain the warm-up's (and the previous benchmark's) garbage so its
	// collection isn't charged to the timed iterations.
	runtime.GC()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cn.Run(ctx, img)
	}
}

func BenchmarkInference_Tiny(b *testing.B) {
	benchInference(b, cnn.NewTinyNet(), ckks.NewParameters(8, 30, 7, 45), 1, hecnn.Options{})
}

func BenchmarkInference_Tiny_Parallel(b *testing.B) {
	benchInference(b, cnn.NewTinyNet(), ckks.NewParameters(8, 30, 7, 45), 0, hecnn.Options{})
}

func BenchmarkInference_TinyConv(b *testing.B) {
	benchInference(b, cnn.NewTinyConvNet(), ckks.NewParameters(8, 30, 7, 45), 1, hecnn.Options{})
}

func BenchmarkInference_TinyConv_Parallel(b *testing.B) {
	benchInference(b, cnn.NewTinyConvNet(), ckks.NewParameters(8, 30, 7, 45), 0, hecnn.Options{})
}

// BenchmarkInference_MNIST is the paper-parameter workload (N=8192):
// one iteration is ~15 s of software CKKS.
func BenchmarkInference_MNIST(b *testing.B) {
	benchInference(b, cnn.NewMNISTNet(), ckks.ParamsMNIST(), 1, hecnn.Options{})
}

// BenchmarkInference_MNIST_Parallel is the workload the pool is sized
// for: 8192-coefficient limbs and 8-digit key switches fan out across
// GOMAXPROCS workers, bit-identical to the serial row above.
func BenchmarkInference_MNIST_Parallel(b *testing.B) {
	benchInference(b, cnn.NewMNISTNet(), ckks.ParamsMNIST(), 0, hecnn.Options{})
}

// BenchmarkInference_MNIST_BSGS compiles the interior linear layers as
// BSGS diagonal transforms (DESIGN.md §16): O(√D) keyswitches per dense
// layer instead of the rotate-and-sum ladder. Serial like the base MNIST
// row, so base/BSGS is the diagonal-method speedup PERFORMANCE.md
// reports.
func BenchmarkInference_MNIST_BSGS(b *testing.B) {
	benchInference(b, cnn.NewMNISTNet(), ckks.ParamsMNIST(), 1, hecnn.Options{BSGS: true})
}

// BenchmarkInference_MNIST_BSGS_Cached is the BSGS serve-path steady
// state: every diagonal plaintext pre-encoded at its consumed (level,
// scale) through the same CompiledNetwork cache as the ladder rows.
// The MNIST diagonal operand set (~0.4 GB — one plaintext per nonzero
// diagonal) exceeds the 256 MiB default budget, so this row runs
// unbounded; with the default it would thrash (PERFORMANCE.md §5).
func BenchmarkInference_MNIST_BSGS_Cached(b *testing.B) {
	benchInferenceCached(b, cnn.NewMNISTNet(), ckks.ParamsMNIST(), -1, hecnn.Options{BSGS: true})
}

func BenchmarkInference_Tiny_Cached(b *testing.B) {
	benchInferenceCached(b, cnn.NewTinyNet(), ckks.NewParameters(8, 30, 7, 45), 0, hecnn.Options{})
}

func BenchmarkInference_TinyConv_Cached(b *testing.B) {
	benchInferenceCached(b, cnn.NewTinyConvNet(), ckks.NewParameters(8, 30, 7, 45), 0, hecnn.Options{})
}

// BenchmarkInference_MNIST_Cached is the serve-path steady state at paper
// parameters: the serial MNIST row minus every per-request weight encode.
func BenchmarkInference_MNIST_Cached(b *testing.B) {
	benchInferenceCached(b, cnn.NewMNISTNet(), ckks.ParamsMNIST(), 0, hecnn.Options{})
}

// BenchmarkEvaluateTracedNilTracer pins (as a benchmark, alongside the
// AllocsPerRun test in hecnn) that the traced entry point with telemetry
// disabled adds nothing to the evaluate hot path.
func BenchmarkEvaluateTracedNilTracer(b *testing.B) {
	pnet := cnn.NewTinyNet()
	pnet.InitWeights(3)
	net := hecnn.Compile(pnet, 256)
	rec := hecnn.NewRecorder()
	be := hecnn.NewCountBackend(rec)
	conv := net.Layers[0].(*hecnn.ConvPacked)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cts := make([]*hecnn.CT, 0, conv.NumPositions())
		for j := 0; j < conv.NumPositions(); j++ {
			cts = append(cts, hecnn.FreshCT(7))
		}
		net.EvaluateTraced(be, cts, nil)
	}
}

// BenchmarkBatchAgreement measures the encrypted-vs-plaintext agreement
// sweep over a small structured-image batch.
func BenchmarkBatchAgreement(b *testing.B) {
	params := ckks.NewParameters(8, 30, 7, 45)
	pnet := cnn.NewTinyNet()
	pnet.InitWeights(5)
	henet := hecnn.Compile(pnet, params.Slots())
	ctx := hecnn.NewContext(params, 6, henet.RotationsNeeded(params.MaxLevel()))
	batch := workload.Batch(pnet, 2, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := workload.EvaluateAgreement(pnet, henet, ctx, batch)
		if err != nil {
			b.Fatal(err)
		}
		if r.AgreementRate() != 1 {
			b.Fatal("agreement lost")
		}
	}
}

// BenchmarkDSE_Parallel measures the worker-pool exploration.
func BenchmarkDSE_Parallel(b *testing.B) {
	p := profile.PaperMNIST()
	for i := 0; i < b.N; i++ {
		if _, err := dse.ExploreParallel(p, fpga.ACU9EG); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBatchedInference measures CryptoNets-style batched encrypted
// evaluation at reduced geometry (whole batch per run).
func BenchmarkBatchedInference(b *testing.B) {
	params := ckks.NewParameters(8, 30, 7, 45)
	pnet := cnn.NewTinyNet()
	pnet.InitWeights(9)
	bnet, err := hecnn.CompileBatched(pnet, params.Slots())
	if err != nil {
		b.Fatal(err)
	}
	ctx := hecnn.NewContext(params, 10, nil)
	images := workload.Batch(pnet, 4, 11)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := bnet.RunBatch(ctx, images); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInference_MNIST_Batched is the throughput path at paper scale:
// the MNIST network evaluated position-major for a batch of 8 images on
// the small derived batch ring (hecnn.BatchedParams — same modulus chain,
// smallest ring covering the batch), through the warmed broadcast-
// plaintext cache exactly as the serve path runs it. ns/op is the whole
// batch; the reported ns/image is what compares against the per-request
// Inference_MNIST row (the ≥4× per-image claim in PERFORMANCE.md).
func BenchmarkInference_MNIST_Batched(b *testing.B) {
	const occupancy = 8
	base := ckks.ParamsMNIST()
	pnet := cnn.NewMNISTNet()
	pnet.InitWeights(1)
	bp, err := hecnn.BatchedParams(base, occupancy)
	if err != nil {
		b.Fatal(err)
	}
	bnet, err := hecnn.CompileBatched(pnet, bp.Slots())
	if err != nil {
		b.Fatal(err)
	}
	ctx := hecnn.NewContext(bp, 2, nil)
	cb := hecnn.NewCompiledBatched(bnet, bp, ctx.Encoder, 0)
	cb.Warm(bp.MaxLevel())
	images := workload.Batch(pnet, occupancy, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := cb.RunBatch(ctx, images); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*occupancy), "ns/image")
}

// --- per-op kernel benchmarks (the CI kernel regression gate) ---
//
// The BenchmarkKernel_* rows pin the modular-arithmetic hot paths at the
// paper ring geometry (N=8192, 30-bit NTT primes): the Harvey-lazy NTT
// butterflies, Montgomery vs Barrett coefficient multiplication, the
// lazy-MAC keyswitch inner row, and the NTT-domain automorphism. Each op
// performs kernelReps passes over one limb so even a -benchtime=1x CI
// run measures a stable chunk of work; ci.yml compares these rows
// against the committed BENCH_inference.json at the same 25% threshold
// as the inference rows, so a butterfly or reduction regression fails
// the build before it shows up as seconds of end-to-end latency.

// kernelReps is the inner repetition count of every Kernel_ benchmark:
// ns/op is kernelReps passes, identically in the committed baseline and
// in CI, so the ratio is unaffected.
const kernelReps = 16

// kernelOperands returns the paper-geometry ring, its first prime, and
// two deterministic canonical coefficient vectors. It forces a
// collection first: in a full-suite run the inference benchmarks leave
// gigabytes of garbage behind, and without the drain the GC pays for it
// inside the kernel timing windows (observed inflating the NTT row
// 3.5×), which both misstates the baseline and loosens the CI gate.
func kernelOperands() (*ring.Ring, modarith.Modulus, []uint64, []uint64) {
	runtime.GC()
	r := ckks.ParamsMNIST().Ring()
	m := r.Mods[0]
	a := make([]uint64, r.N)
	c := make([]uint64, r.N)
	s := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return s
	}
	for i := range a {
		a[i] = next() % m.Q
		c[i] = next() % m.Q
	}
	return r, m, a, c
}

// BenchmarkKernel_NTTForward measures the forward negacyclic NTT of one
// N=8192 limb (Cooley-Tukey, Harvey-lazy butterflies, final reduction
// pass).
func BenchmarkKernel_NTTForward(b *testing.B) {
	r, _, a, _ := kernelOperands()
	t := r.Tables[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < kernelReps; j++ {
			t.Forward(a)
		}
	}
}

// BenchmarkKernel_NTTInverse measures the inverse NTT of one N=8192 limb
// (Gentleman-Sande, lazy butterflies, n⁻¹ fold).
func BenchmarkKernel_NTTInverse(b *testing.B) {
	r, _, a, _ := kernelOperands()
	t := r.Tables[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < kernelReps; j++ {
			t.Inverse(a)
		}
	}
}

// BenchmarkKernel_MulModBarrett measures the Barrett coefficient product
// kernel (MulVec) — the cold-path reference the Montgomery row is
// compared against in PERFORMANCE.md.
func BenchmarkKernel_MulModBarrett(b *testing.B) {
	_, m, a, c := kernelOperands()
	out := make([]uint64, len(a))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < kernelReps; j++ {
			m.MulVec(out, a, c)
		}
	}
}

// BenchmarkKernel_MulModMontgomery measures the Montgomery coefficient
// product kernel (MulMontVec) with the second operand pre-converted, the
// form every keyswitch MAC consumes.
func BenchmarkKernel_MulModMontgomery(b *testing.B) {
	_, m, a, c := kernelOperands()
	cMont := make([]uint64, len(c))
	m.MFormVec(cMont, c)
	out := make([]uint64, len(a))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < kernelReps; j++ {
			m.MulMontVec(out, a, cMont)
		}
	}
}

// BenchmarkKernel_KeySwitchRow measures one target row of the RNS
// keyswitch inner loop exactly as keySwitchCore runs it: per digit two
// lazy Montgomery MACs into unreduced accumulators, then one closing
// ReduceVec per accumulator.
func BenchmarkKernel_KeySwitchRow(b *testing.B) {
	_, m, a, c := kernelOperands()
	const digits = 7
	keyB := make([][]uint64, digits)
	keyA := make([][]uint64, digits)
	for d := range keyB {
		keyB[d] = make([]uint64, len(c))
		keyA[d] = make([]uint64, len(c))
		m.MFormVec(keyB[d], c)
		m.MFormVec(keyA[d], a)
	}
	acc0 := make([]uint64, len(a))
	acc1 := make([]uint64, len(a))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < kernelReps; j++ {
			for k := range acc0 {
				acc0[k] = 0
				acc1[k] = 0
			}
			for d := 0; d < digits; d++ {
				m.MulMontAddLazyVec(acc0, a, keyB[d])
				m.MulMontAddLazyVec(acc1, a, keyA[d])
			}
			m.ReduceVec(acc0, acc0)
			m.ReduceVec(acc1, acc1)
		}
	}
}

// BenchmarkKernel_Automorphism measures the NTT-domain Galois
// permutation of one limb (the per-rotation work a hoisted rotation
// pays after the shared decomposition).
func BenchmarkKernel_Automorphism(b *testing.B) {
	r, _, a, _ := kernelOperands()
	perm := r.NTTAutomorphismIndex(ckks.ParamsMNIST().GaloisElementForRotation(1))
	out := make([]uint64, len(a))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < kernelReps; j++ {
			ring.PermuteVec(out, a, perm)
		}
	}
}

// BenchmarkTrainTinyNet measures SGD training on the synthetic task.
func BenchmarkTrainTinyNet(b *testing.B) {
	train := workload.QuadrantDataset(1, 8, 8, 50, 1)
	for i := 0; i < b.N; i++ {
		net := cnn.NewTinyNet()
		net.InitWeights(5)
		if _, err := net.Train(train, cnn.TrainConfig{
			Epochs: 2, LearningRate: 0.01, Seed: 7, LogitScale: 0.05,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

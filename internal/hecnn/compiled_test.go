package hecnn

import (
	"math"
	"slices"
	"sync"
	"testing"

	"fxhenn/internal/ckks"
	"fxhenn/internal/cnn"
)

// compiledFixture builds a tiny network in the requested compile mode
// plus a fresh Context with deterministic key/encryption seeds, so two
// fixtures with the same arguments produce bit-identical ciphertexts.
func compiledFixture(t *testing.T, opts Options) (ckks.Parameters, *Network, *Context, *cnn.Tensor) {
	t.Helper()
	params := ckks.NewParameters(8, 30, 7, 45)
	pnet := cnn.NewTinyNet()
	pnet.InitWeights(11)
	net := CompileWith(pnet, params.Slots(), opts)
	ctx := NewContext(params, 5, net.RotationsNeeded(params.MaxLevel()))
	img := cnn.NewTensor(1, 8, 8)
	for i := range img.Data {
		img.Data[i] = float64(i%5)/5 - 0.3
	}
	return params, net, ctx, img
}

// encryptInput packs and encrypts img with the fixture's deterministic
// encryptor; callers needing identical ciphertexts across runs must use
// fresh fixtures (the encryptor PRNG is stateful).
func encryptInput(net *Network, ctx *Context, img *cnn.Tensor) []*CT {
	var cts []*CT
	for _, v := range net.PackInput(img) {
		cts = append(cts, ctx.EncryptVector(v))
	}
	return cts
}

// TestCompiledZeroEncodeSteadyState is the serve-path caching contract,
// in both compile modes: after Warm, inference through the cached
// backend performs zero Encoder.Encode calls (the encode seam fails the
// test if touched) and its output ciphertext is bit-identical to the
// uncached crypto backend's.
func TestCompiledZeroEncodeSteadyState(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
	}{{"default", Options{}}, {"bsgs", Options{BSGS: true}}} {
		t.Run(tc.name, func(t *testing.T) {
			// Uncached reference run on its own fixture (same seeds).
			_, net, ctx, img := compiledFixture(t, tc.opts)
			out := net.EvaluateEncrypted(NewCryptoBackend(ctx, nil), encryptInput(net, ctx, img))
			wantDigest := out.digest()
			wantLogits := ctx.DecryptVector(out)[:net.Layers[len(net.Layers)-1].OutElems()]

			// Cached run: warm, then forbid encodes entirely.
			params2, net2, ctx2, img2 := compiledFixture(t, tc.opts)
			cn := NewCompiledNetwork(net2, params2, ctx2.Encoder, 0)
			cn.Warm(params2.MaxLevel())
			warmEncodes := cn.EncodeCalls()
			if warmEncodes == 0 {
				t.Fatal("Warm encoded nothing — operand fold broken")
			}
			cn.encode = func(Plain, operandKey) *ckks.Plaintext {
				t.Fatal("Encoder.Encode called during steady-state cached inference")
				return nil
			}
			cts := encryptInput(net2, ctx2, img2)
			got := net2.EvaluateEncrypted(cn.Backend(ctx2, nil), cts)
			if d := got.digest(); d != wantDigest {
				t.Fatalf("cached output digest %s != uncached %s", d, wantDigest)
			}
			gotLogits := ctx2.DecryptVector(got)[:net2.Layers[len(net2.Layers)-1].OutElems()]
			for i := range wantLogits {
				if gotLogits[i] != wantLogits[i] {
					t.Fatalf("logit %d: cached %g != uncached %g", i, gotLogits[i], wantLogits[i])
				}
			}
			if cn.EncodeCalls() != warmEncodes {
				t.Fatalf("encode calls grew %d → %d after Warm", warmEncodes, cn.EncodeCalls())
			}
			if st := cn.CacheStats(); st.Misses == 0 || st.Hits == 0 {
				t.Fatalf("implausible cache stats %+v", st)
			}
		})
	}
}

// TestCompiledWarmMatchesConsumption: Warm must pre-encode exactly the
// operand set an inference consumes — a warm run followed by one
// inference shows hits only, and the miss count equals the warm encode
// count (no wasted or missing keys).
func TestCompiledWarmMatchesConsumption(t *testing.T) {
	params, net, ctx, img := compiledFixture(t, Options{})
	cn := NewCompiledNetwork(net, params, ctx.Encoder, 0)
	cn.Warm(params.MaxLevel())
	warm := cn.CacheStats()
	net.EvaluateEncrypted(cn.Backend(ctx, nil), encryptInput(net, ctx, img))
	st := cn.CacheStats()
	if st.Misses != warm.Misses {
		t.Fatalf("inference missed the warm cache: misses %d → %d", warm.Misses, st.Misses)
	}
	if st.Hits <= warm.Hits {
		t.Fatalf("inference produced no cache hits (hits %d → %d)", warm.Hits, st.Hits)
	}
}

// sharedConstLayer consumes one broadcast scalar — one interned plain id —
// as a PCmult operand and as a PCadd operand at the same level and
// scale: x·c + (y+c)·c.
type sharedConstLayer struct{}

func (sharedConstLayer) Name() string    { return "shared-const" }
func (sharedConstLayer) Kind() LayerKind { return NKS }
func (sharedConstLayer) OutElems() int   { return 1 }

func (sharedConstLayer) Apply(b Backend, in *State) *State {
	c := Plain{IsConst: true, Const: 0.75}
	out := b.CCadd(b.PCmult(in.CTs[0], c), b.PCmult(b.PCadd(in.CTs[1], c), c))
	return &State{CTs: []*CT{out}, Kind: Contiguous, N: 1}
}

// TestOperandFormInCacheKey: the operand key carries the operand's form,
// so a scalar both PCmult and PCadd consume at one level and scale is
// two resident slots — a Montgomery-form one for the products and a
// normal one for the sum — and the cached evaluation is bit-identical to
// the uncached one and decrypts to x·c + (y+c)·c.
func TestOperandFormInCacheKey(t *testing.T) {
	params := tinyParams()
	p := lowerLayers([]Layer{sharedConstLayer{}}, 2)
	var keys []operandKey
	p.operands(&params, params.MaxLevel(), func(k operandKey) { keys = append(keys, k) })
	if len(keys) != 3 || keys[0].plain != keys[1].plain || keys[0].level != keys[1].level ||
		keys[0].scale != keys[1].scale || keys[0].mont == keys[1].mont {
		t.Fatalf("operand keys %v: want the PCmult and PCadd consumptions of one plain at one level and scale", keys)
	}

	x, y := 0.5, -0.25
	eval := func(cached bool) (*Context, *CT, *operandTable) {
		ctx := NewContext(params, 91, nil)
		in := []*CT{ctx.EncryptVector([]float64{x}), ctx.EncryptVector([]float64{y})}
		b := NewCryptoBackend(ctx, nil)
		var pc *operandTable
		if cached {
			pc = &operandTable{}
			pc.init(p, params, ctx.Encoder, 0, "test")
			pc.Warm(params.MaxLevel())
			b = pc.Backend(ctx, nil)
		}
		return ctx, p.run(b, in, nil, false)[p.outputs()[0]], pc
	}
	_, want, _ := eval(false)
	ctx, got, pc := eval(true)
	if st := pc.CacheStats(); st.Entries != 2 || st.Misses != 2 {
		t.Errorf("table holds %d entries after %d misses, want 2 and 2", st.Entries, st.Misses)
	}
	if got.digest() != want.digest() {
		t.Error("cached evaluation differs from the uncached one")
	}
	if v, exact := ctx.DecryptVector(got)[0], x*0.75+(y+0.75)*0.75; math.Abs(v-exact) > 1e-3 {
		t.Errorf("decrypted %g, want %g", v, exact)
	}
}

// TestCompiledHandlePerProgram pins that a handle is bound to the program
// it was built for: recompiling the same CNN in another mode (BSGS, with
// its own operand set and Galois keys) takes a new handle, which warms its
// own operands without touching the first handle's table and evaluates
// bit-identically to the uncached BSGS path.
func TestCompiledHandlePerProgram(t *testing.T) {
	params, net, ctx, _ := compiledFixture(t, Options{})
	cn := NewCompiledNetwork(net, params, ctx.Encoder, 0)
	cn.Warm(params.MaxLevel())
	ladder := cn.CacheStats()
	if ladder.Entries == 0 {
		t.Fatal("warm table empty")
	}

	// Fresh fixtures with identical seeds: cached-BSGS must equal
	// uncached-BSGS bit for bit.
	_, dnet, dctx, dimg := compiledFixture(t, Options{BSGS: true})
	want := dnet.EvaluateEncrypted(NewCryptoBackend(dctx, nil), encryptInput(dnet, dctx, dimg)).digest()
	_, dnet2, dctx2, dimg2 := compiledFixture(t, Options{BSGS: true})
	cn2 := NewCompiledNetwork(dnet2, params, dctx2.Encoder, 0)
	cn2.Warm(params.MaxLevel())
	if cn2.EncodeCalls() == 0 {
		t.Fatal("BSGS handle warmed nothing")
	}
	got := dnet2.EvaluateEncrypted(cn2.Backend(dctx2, nil), encryptInput(dnet2, dctx2, dimg2)).digest()
	if got != want {
		t.Fatalf("cached BSGS digest %s != uncached %s", got, want)
	}
	if st := cn.CacheStats(); st != ladder {
		t.Fatalf("another program's handle changed the ladder table: %+v → %+v", ladder, st)
	}
}

// TestCompiledConcurrentRequests shares one warm CompiledNetwork across
// concurrent per-request backends on one Context — the mlaas serving
// shape — under -race: every response must be bit-identical (evaluation
// is deterministic server-side) and no new encodes may happen. A second
// round evaluates one shared input slice from every goroutine: an
// evaluation writes only into values it owns, so -race sees no write to
// the shared inputs and their digests stay unchanged.
func TestCompiledConcurrentRequests(t *testing.T) {
	params, net, ctx, img := compiledFixture(t, Options{})
	cn := NewCompiledNetwork(net, params, ctx.Encoder, 0)
	cn.Warm(params.MaxLevel())
	baseline := cn.EncodeCalls()

	const requests = 8
	// Encrypt each request's input serially — the encryptor PRNG is
	// stateful — then evaluate concurrently. All requests carry the same
	// ciphertexts' *values* only in the first slot batch, so digests are
	// compared per-request against a serial reference.
	inputs := make([][]*CT, requests)
	want := make([]string, requests)
	for i := range inputs {
		inputs[i] = encryptInput(net, ctx, img)
		ref := net.EvaluateEncrypted(NewCryptoBackend(ctx, nil), inputs[i])
		want[i] = ref.digest()
	}

	var wg sync.WaitGroup
	errs := make(chan string, requests)
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out := net.EvaluateEncrypted(cn.Backend(ctx, nil), inputs[i])
			if d := out.digest(); d != want[i] {
				errs <- d + " != " + want[i]
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	if msg, ok := <-errs; ok {
		t.Fatalf("concurrent cached evaluation diverged: %s", msg)
	}
	if got := cn.EncodeCalls(); got != baseline {
		t.Fatalf("concurrent steady-state traffic encoded: %d → %d", baseline, got)
	}

	shared, inDigests := inputs[0], digests(inputs[0])
	errs = make(chan string, requests)
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := net.EvaluateEncrypted(cn.Backend(ctx, nil), shared)
			if d := out.digest(); d != want[0] {
				errs <- d + " != " + want[0]
			}
		}()
	}
	wg.Wait()
	close(errs)
	if msg, ok := <-errs; ok {
		t.Fatalf("concurrent evaluation of one shared input diverged: %s", msg)
	}
	if got := digests(shared); !slices.Equal(got, inDigests) {
		t.Fatal("concurrent evaluations rewrote the shared input ciphertexts")
	}
}

// TestCompiledByteBudget: under half of PlanCacheBytes the table keeps
// operands resident in first-consumption order while they fit, and one
// evaluation encodes exactly the consumptions the residency fold leaves
// non-resident — a count known before the run, not an LRU's accident —
// with a digest equal to the uncached path's and resident bytes within
// the budget.
func TestCompiledByteBudget(t *testing.T) {
	_, net, ctx, img := compiledFixture(t, Options{})
	want := net.EvaluateEncrypted(NewCryptoBackend(ctx, nil), encryptInput(net, ctx, img)).digest()

	params, net2, ctx2, img2 := compiledFixture(t, Options{})
	top := params.MaxLevel()
	budget := PlanCacheBytes(net2, params, top) / 2
	resident := map[operandKey]bool{}
	net2.prog.residents(&params, top, budget, func(_ int, k operandKey) { resident[k] = true })
	var uses, nonResident int64
	net2.prog.operands(&params, top, func(k operandKey) {
		uses++
		if !resident[k] {
			nonResident++
		}
	})
	if nonResident == 0 || nonResident == uses {
		t.Fatalf("half budget leaves %d of %d uses non-resident, want some of each", nonResident, uses)
	}

	cn := NewCompiledNetwork(net2, params, ctx2.Encoder, budget)
	cn.Warm(top)
	warm := cn.CacheStats()
	if warm.Entries != len(resident) || warm.Bytes > budget || warm.Bytes == 0 {
		t.Fatalf("warm table %+v, want %d entries within %d bytes", warm, len(resident), budget)
	}
	got := net2.EvaluateEncrypted(cn.Backend(ctx2, nil), encryptInput(net2, ctx2, img2)).digest()
	if got != want {
		t.Fatalf("budgeted digest %s != uncached %s", got, want)
	}
	st := cn.CacheStats()
	if enc := st.Misses - warm.Misses; enc != nonResident {
		t.Fatalf("evaluation encoded %d operands, the fold predicts %d", enc, nonResident)
	}
	if hits := st.Hits - warm.Hits; hits != uses-nonResident {
		t.Fatalf("evaluation hit %d resident operands, want %d", hits, uses-nonResident)
	}
}

// TestOperandLookupAllocs: a warm lookup is a slice index and a key
// check — it allocates nothing.
func TestOperandLookupAllocs(t *testing.T) {
	params, net, ctx, _ := compiledFixture(t, Options{})
	cn := NewCompiledNetwork(net, params, ctx.Encoder, 0)
	cn.Warm(params.MaxLevel())
	var keys []operandKey
	net.prog.operands(&params, params.MaxLevel(), func(k operandKey) { keys = append(keys, k) })
	plains := make([]Plain, len(keys))
	for i, k := range keys {
		plains[i] = net.prog.plain(k.plain)
	}
	before := cn.EncodeCalls()
	allocs := testing.AllocsPerRun(10, func() {
		for i, k := range keys {
			cn.source(plains[i], k)
		}
	})
	if allocs != 0 {
		t.Fatalf("a warm pass over %d lookups allocated %v times", len(keys), allocs)
	}
	if cn.EncodeCalls() != before {
		t.Fatal("a warm lookup encoded")
	}
}

// TestCompiledOtherStartLevel: inputs one level below Warm's consume
// every operand under a key no resident plaintext carries. The table
// encodes each such use instead of serving a plaintext at the wrong
// level, so the evaluation is digest-identical to the uncached backend.
func TestCompiledOtherStartLevel(t *testing.T) {
	lower := func(cts []*CT) []*CT {
		for _, ct := range cts {
			ct.Ciphertext().DropLevel(1)
		}
		return cts
	}
	_, net, ctx, img := compiledFixture(t, Options{})
	want := net.EvaluateEncrypted(NewCryptoBackend(ctx, nil), lower(encryptInput(net, ctx, img))).digest()

	params, net2, ctx2, img2 := compiledFixture(t, Options{})
	cn := NewCompiledNetwork(net2, params, ctx2.Encoder, 0)
	cn.Warm(params.MaxLevel())
	warm := cn.CacheStats()
	got := net2.EvaluateEncrypted(cn.Backend(ctx2, nil), lower(encryptInput(net2, ctx2, img2))).digest()
	if got != want {
		t.Fatalf("digest %s one level below Warm's != uncached %s", got, want)
	}
	var uses int64
	net2.prog.operands(&params, params.MaxLevel()-1, func(operandKey) { uses++ })
	if st := cn.CacheStats(); st.Misses-warm.Misses != uses || st.Hits != warm.Hits {
		t.Fatalf("table %+v after warm %+v: want all %d uses encoded, none served", st, warm, uses)
	}
}

package hecnn

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"fxhenn/internal/ckks"
	"fxhenn/internal/cnn"
	"fxhenn/internal/parallel"
)

// encoderTolerance is the agreed cross-path tolerance: CKKS fixed-point
// noise at the test parameter set keeps logits within ~1e-2 of the exact
// plaintext inference, and every evaluation path must land in that band.
const encoderTolerance = 1e-2

// TestDifferentialEvaluationPaths is the cross-path differential harness
// of issue 5: the evaluation paths — LoLa per-request, compiled-cached,
// BSGS, and CryptoNets-batched — must agree with the plaintext network
// within encoder tolerance across the MNIST-profile and CIFAR-profile
// test networks and multiple weight seeds. The deterministic paths are
// additionally pinned by output-ciphertext digests: compiled-cached must
// be bit-identical to the uncached LoLa path (same seed, same operand
// stream), and the BSGS path must be bit-identical run to run and cached
// vs uncached. Every program is also evaluated through passThrough, which
// gets the unfused call stream a foreign Backend sees, and must match the
// crypto backend's fused, in-place evaluation byte for byte and event for
// event without either touching its inputs. The ladder and BSGS programs
// evaluated with level views of their keys (KeyViews, as a server holds
// them) must match the full keys by digest. This is the single place all
// the paths meet; it runs in tier-1.
func TestDifferentialEvaluationPaths(t *testing.T) {
	profiles := []struct {
		name string
		make func() *cnn.Network
	}{
		// TinyNet shares FxHENN-MNIST's layer pattern (conv→sq→fc→sq→fc),
		// TinyConvNet shares FxHENN-CIFAR10's (conv→sq→conv→sq→fc).
		{"MNIST-profile", cnn.NewTinyNet},
		{"CIFAR-profile", cnn.NewTinyConvNet},
	}
	for _, prof := range profiles {
		for _, seed := range []int64{7, 1001} {
			t.Run(fmt.Sprintf("%s/seed%d", prof.name, seed), func(t *testing.T) {
				params := tinyParams()
				pnet := prof.make()
				pnet.InitWeights(seed)
				img := randomImage(pnet.InC, pnet.InH, pnet.InW, seed+1)
				want := pnet.Infer(img)
				ctxSeed := seed + 2

				checkLogits := func(path string, got []float64) {
					t.Helper()
					if len(got) < len(want) {
						t.Fatalf("%s: %d logits, want %d", path, len(got), len(want))
					}
					for i := range want {
						if math.Abs(got[i]-want[i]) > encoderTolerance {
							t.Errorf("%s logit %d: %g vs plaintext %g", path, i, got[i], want[i])
						}
					}
					if cnn.Argmax(got[:len(want)]) != cnn.Argmax(want) {
						t.Errorf("%s: argmax diverged from plaintext", path)
					}
				}
				outElems := func(n *Network) int {
					return n.Layers[len(n.Layers)-1].OutElems()
				}

				// Path 1 — LoLa per-request (the latency path).
				lola := Compile(pnet, params.Slots())
				rots := lola.RotationsNeeded(params.MaxLevel())
				ctx1 := NewContext(params, ctxSeed, rots)
				out1 := lola.EvaluateEncrypted(NewCryptoBackend(ctx1, nil), encryptInput(lola, ctx1, img))
				lolaDigest := out1.Ciphertext().Digest()
				checkLogits("lola", ctx1.DecryptVector(out1)[:outElems(lola)])

				// Path 2 — compiled-cached: same seed, same operand stream
				// ⇒ bit-identical to path 1, pinned by digest.
				ctx2 := NewContext(params, ctxSeed, rots)
				cn := NewCompiledNetwork(lola, params, ctx2.Encoder, 0)
				cn.Warm(params.MaxLevel())
				out2 := lola.EvaluateEncrypted(cn.Backend(ctx2, nil), encryptInput(lola, ctx2, img))
				if d := out2.Ciphertext().Digest(); d != lolaDigest {
					t.Errorf("compiled-cached digest %s != lola %s", d, lolaDigest)
				}
				checkLogits("compiled", ctx2.DecryptVector(out2)[:outElems(lola)])

				// Path 5 — BSGS diagonal linear transforms: a different
				// rotation structure entirely (baby/giant steps from one
				// hoisted decomposition instead of rotate-and-sum ladders),
				// numerically distinct from the ladder, so it gets the
				// tolerance check plus a run-to-run determinism digest, and
				// additionally a cached-vs-uncached digest pin (the diagonal
				// plaintexts ride the same CompiledNetwork cache).
				diag := CompileWith(pnet, params.Slots(), Options{BSGS: true})
				for _, l := range diag.Layers {
					if _, ok := l.(*MatVecGroup); ok {
						t.Errorf("BSGS compile kept ladder layer %q", l.Name())
					}
				}
				drots := diag.RotationsNeeded(params.MaxLevel())
				ctx5 := NewContext(params, ctxSeed, drots)
				out5 := diag.EvaluateEncrypted(NewCryptoBackend(ctx5, nil), encryptInput(diag, ctx5, img))
				checkLogits("bsgs", ctx5.DecryptVector(out5)[:outElems(diag)])
				bsgsDigest := out5.Ciphertext().Digest()
				ctx5b := NewContext(params, ctxSeed, drots)
				out5b := diag.EvaluateEncrypted(NewCryptoBackend(ctx5b, nil), encryptInput(diag, ctx5b, img))
				if d := out5b.Ciphertext().Digest(); d != bsgsDigest {
					t.Errorf("bsgs path not deterministic: %s vs %s", d, bsgsDigest)
				}
				ctx5c := NewContext(params, ctxSeed, drots)
				cnd := NewCompiledNetwork(diag, params, ctx5c.Encoder, 0)
				cnd.Warm(params.MaxLevel())
				out5c := diag.EvaluateEncrypted(cnd.Backend(ctx5c, nil), encryptInput(diag, ctx5c, img))
				if d := out5c.Ciphertext().Digest(); d != bsgsDigest {
					t.Errorf("bsgs cached digest %s != uncached %s", d, bsgsDigest)
				}
				if calls := cnd.EncodeCalls(); calls == 0 {
					t.Error("bsgs warm performed no encodes")
				} else {
					before := cnd.EncodeCalls()
					ctx5d := NewContext(params, ctxSeed, drots)
					diag.EvaluateEncrypted(cnd.Backend(ctx5d, nil), encryptInput(diag, ctx5d, img))
					if after := cnd.EncodeCalls(); after != before {
						t.Errorf("bsgs steady state encoded %d new operands", after-before)
					}
				}

				// Path 7 — level views: each key trimmed to the highest
				// level the program uses it at, as a server holds them,
				// is bit-identical to the full keys in both compile modes.
				for _, p := range []struct {
					name   string
					net    *Network
					digest string
				}{{"lola", lola, lolaDigest}, {"bsgs", diag, bsgsDigest}} {
					ctx7 := viewContext(t, p.net, params, ctxSeed)
					out7 := p.net.EvaluateEncrypted(NewCryptoBackend(ctx7, nil), encryptInput(p.net, ctx7, img))
					if d := out7.Ciphertext().Digest(); d != p.digest {
						t.Errorf("%s with level views: digest %s != full keys %s", p.name, d, p.digest)
					}
				}

				// Path 4 — CryptoNets-batched (the throughput path), with a
				// second image in the batch so slot demux is exercised too.
				bnet, err := CompileBatched(pnet, params.Slots())
				if err != nil {
					t.Fatal(err)
				}
				img2 := randomImage(pnet.InC, pnet.InH, pnet.InW, seed+3)
				ctx4 := NewContext(params, ctxSeed, nil)
				logits, _, err := bnet.RunBatch(ctx4, []*cnn.Tensor{img, img2})
				if err != nil {
					t.Fatal(err)
				}
				checkLogits("batched[0]", logits[0])
				want2 := pnet.Infer(img2)
				for i := range want2 {
					if math.Abs(logits[1][i]-want2[i]) > encoderTolerance {
						t.Errorf("batched[1] logit %d: %g vs plaintext %g", i, logits[1][i], want2[i])
					}
				}

				// Path 6 — unfused: each program through passThrough.
				net := func(n *Network) func(Backend, []*CT) []*CT {
					return func(b Backend, in []*CT) []*CT { return []*CT{n.EvaluateEncrypted(b, in)} }
				}
				freshInput := func(n *Network) func() (*Context, []*CT) {
					rots := n.RotationsNeeded(params.MaxLevel())
					return func() (*Context, []*CT) {
						ctx := NewContext(params, ctxSeed, rots)
						return ctx, encryptInput(n, ctx, img)
					}
				}
				checkFusedMatchesUnfused(t, "lola", freshInput(lola), net(lola))
				checkFusedMatchesUnfused(t, "bsgs", freshInput(diag), net(diag))
				checkFusedMatchesUnfused(t, "batched", func() (*Context, []*CT) {
					ctx := NewContext(params, ctxSeed, nil)
					packed, err := bnet.PackBatch([]*cnn.Tensor{img, img2})
					if err != nil {
						t.Fatal(err)
					}
					cts := make([]*CT, len(packed))
					for i, v := range packed {
						cts[i] = ctx.EncryptVector(v)
					}
					return ctx, cts
				}, bnet.Evaluate)

				// Batched-cached must match batched-uncached bit-for-bit
				// (same context seed ⇒ same fresh ciphertexts).
				ctx4b := NewContext(params, ctxSeed, nil)
				cb := NewCompiledBatched(bnet, params, ctx4b.Encoder, 0)
				cb.Warm(params.MaxLevel())
				logitsC, _, err := cb.RunBatch(ctx4b, []*cnn.Tensor{img, img2})
				if err != nil {
					t.Fatal(err)
				}
				for bi := range logits {
					for i := range logits[bi] {
						if logits[bi][i] != logitsC[bi][i] {
							t.Errorf("batched cached/uncached diverged at [%d][%d]: %g vs %g",
								bi, i, logits[bi][i], logitsC[bi][i])
						}
					}
				}
			})
		}
	}
}

// viewContext is NewContext(params, seed, n's rotations) with an
// evaluator over the level views n.KeyViews derives from the same keys,
// regenerated from seed in NewContext's draw order. It fails unless some
// key was actually trimmed.
func viewContext(t *testing.T, n *Network, params ckks.Parameters, seed int64) *Context {
	t.Helper()
	top := params.MaxLevel()
	rots := n.RotationsNeeded(top)
	ctx := NewContext(params, seed, rots)
	kg := ckks.NewKeyGenerator(params, seed)
	sk := kg.GenSecretKey()
	kg.GenPublicKey(sk)
	rlk, rtk := n.KeyViews(params, top, kg.GenRelinearizationKey(sk), kg.GenRotationKeys(sk, rots))
	trimmed := rlk.Level() < params.L
	for _, swk := range rtk.Keys {
		trimmed = trimmed || swk.Level() < params.L
	}
	if !trimmed {
		t.Fatalf("%s: no key trimmed below level %d", n.Name, params.L)
	}
	ctx.Eval = ckks.NewEvaluator(params, rlk, rtk)
	return ctx
}

// passThrough hides the crypto backend behind the Backend interface, so
// the interpreter makes exactly the unfused calls the layer code made, as
// it does for any Backend outside this package.
type passThrough struct{ Backend }

// digests returns each handle's ciphertext digest.
func digests(cts []*CT) []string {
	out := make([]string, len(cts))
	for i, ct := range cts {
		out[i] = ct.Ciphertext().Digest()
	}
	return out
}

// checkFusedMatchesUnfused evaluates twice from fresh, identically seeded
// inputs — on the crypto backend, which fuses and writes into values the
// evaluation owns, and through passThrough — and fails unless the outputs
// are byte-identical, the recorded events identical, and no input
// ciphertext changed.
func checkFusedMatchesUnfused(t *testing.T, path string, fresh func() (*Context, []*CT), eval func(Backend, []*CT) []*CT) {
	t.Helper()
	var outs [2][]string
	var recs [2]*Recorder
	for i, wrap := range []func(Backend) Backend{
		func(b Backend) Backend { return b },
		func(b Backend) Backend { return passThrough{b} },
	} {
		ctx, in := fresh()
		before := digests(in)
		recs[i] = NewRecorder()
		outs[i] = digests(eval(wrap(NewCryptoBackend(ctx, recs[i])), in))
		if after := digests(in); !slices.Equal(after, before) {
			t.Errorf("%s: evaluation %d rewrote an input ciphertext", path, i)
		}
	}
	if !slices.Equal(outs[0], outs[1]) {
		t.Errorf("%s: in-place output digests %v, unfused %v", path, outs[0], outs[1])
	}
	sameEvents(t, path+" unfused vs in-place", recs[1], recs[0])
}

// inferenceDigest runs one fully deterministic encrypted inference —
// MNIST-profile or CIFAR-profile structure at reduced geometry — and
// returns the output ciphertext digest. Key material, encryption noise and
// the image are all seed-derived, so two calls differ only in whether a
// worker pool is attached.
func inferenceDigest(pnet *cnn.Network, seed int64, opts Options, pool *parallel.Pool) string {
	params := tinyParams() // fresh Parameters → fresh ring per call
	params.AttachPool(pool)
	net := CompileWith(pnet, params.Slots(), opts)
	ctx := NewContext(params, seed, net.RotationsNeeded(params.MaxLevel()))
	img := randomImage(pnet.InC, pnet.InH, pnet.InW, seed)
	out := net.EvaluateEncrypted(NewCryptoBackend(ctx, nil), encryptInput(net, ctx, img))
	return out.Ciphertext().Digest()
}

// TestParallelInferenceMatchesSerialDigests pins the end-to-end determinism
// guarantee for both network profiles: a multi-worker pool changes only
// the schedule, never a single ciphertext bit.
func TestParallelInferenceMatchesSerialDigests(t *testing.T) {
	pool := parallel.New(4)
	for _, tc := range []struct {
		name string
		pnet *cnn.Network
		seed int64
		opts Options
	}{
		{"mnist-profile", cnn.NewTinyNet(), 50, Options{}},
		{"cifar-profile", cnn.NewTinyConvNet(), 51, Options{}},
	} {
		tc.pnet.InitWeights(tc.seed)
		serial := inferenceDigest(tc.pnet, tc.seed, tc.opts, nil)
		par := inferenceDigest(tc.pnet, tc.seed, tc.opts, pool)
		if serial != par {
			t.Fatalf("%s: parallel digest %s != serial %s", tc.name, par, serial)
		}
	}
	if st := pool.Stats(); st.Dispatched+st.Inline == 0 {
		t.Fatal("pool never executed an item — parallel path not exercised")
	}
}

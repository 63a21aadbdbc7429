package hecnn

import (
	"maps"
	"runtime"
	"slices"
	"testing"

	"fxhenn/internal/ckks"
	"fxhenn/internal/cnn"
)

// countLayer lowers l applied to in (whose handles become the program's
// inputs) and folds its trace from inputs at startLevel. It returns the
// trace, the layer's output state, and the level its first output ends at.
func countLayer(l Layer, in *State, startLevel int) (*Recorder, *State, int) {
	lw, cts := newLowering(len(in.CTs))
	s := *in
	s.CTs = cts
	out := l.Apply(lw, &s)
	lw.endLayer(l.Name(), out.CTs)
	p := lw.finish()
	rec := NewRecorder()
	p.count(startLevel, rec)
	return rec, out, p.schedule(nil, startLevel, nil)[out.CTs[0].id].level
}

// recordKeys wraps inner so every operand it is asked for is appended to
// dst under its cache key.
func recordKeys(dst *[]operandKey, inner plainSource) plainSource {
	return func(w Plain, k operandKey) *ckks.Plaintext {
		*dst = append(*dst, k)
		return inner(w, k)
	}
}

// foldKeys returns the operand keys Warm's fold visits.
func foldKeys(p *program, params ckks.Parameters, startLevel int) []operandKey {
	var keys []operandKey
	p.operands(&params, startLevel, func(k operandKey) { keys = append(keys, k) })
	return keys
}

// sameEvents fails unless two traces hold the same per-layer (op, level)
// streams and rotation sets.
func sameEvents(t *testing.T, what string, fold, live *Recorder) {
	t.Helper()
	if len(fold.Layers) != len(live.Layers) {
		t.Fatalf("%s: %d layers, crypto run %d", what, len(fold.Layers), len(live.Layers))
	}
	for i, dl := range fold.Layers {
		if ll := live.Layers[i]; dl.Layer != ll.Layer || !slices.Equal(dl.Events, ll.Events) {
			t.Fatalf("%s: layer %d is %s %v, crypto run %s %v", what, i, dl.Layer, dl.Events, ll.Layer, ll.Events)
		}
	}
	if !maps.Equal(fold.rotations, live.rotations) {
		t.Fatalf("%s: rotation amounts and levels %v, crypto run %v", what, fold.rotations, live.rotations)
	}
}

// sameKeyLevels fails unless the key-level fold matches what a crypto run
// of net recorded into live: the highest level it relinearized at, and per
// Galois element the highest level any rotation mapping to it ran at. It
// returns how many rotation amounts alias another's element.
func sameKeyLevels(t *testing.T, net *Network, params ckks.Parameters, live *Recorder) (aliased int) {
	t.Helper()
	relin, galois := net.galoisLevels(params, params.MaxLevel())
	liveRelin := 0
	for _, le := range live.Layers {
		for _, e := range le.Events {
			if e.Op == ckks.OpRelin {
				liveRelin = max(liveRelin, e.Level)
			}
		}
	}
	if relin != liveRelin {
		t.Errorf("relinearization key level %d, crypto run relinearized at %d", relin, liveRelin)
	}
	liveGalois := map[uint64]int{}
	for k, l := range live.rotations {
		g := params.GaloisElementForRotation(k)
		liveGalois[g] = max(liveGalois[g], l)
	}
	if !maps.Equal(galois, liveGalois) {
		t.Errorf("Galois key levels %v, crypto run rotated at %v", galois, liveGalois)
	}
	return len(live.rotations) - len(liveGalois)
}

// TestDryRunMatchesCrypto: the folds over a lowered program and a crypto
// evaluation of it agree. Event for event the count fold records the same
// per-layer (op, level) stream and the same rotation set and levels as the
// crypto backend — so Count-derived profiles match evaluation — the
// key-level fold gives each key the highest level the run used it at —
// so the server's level views (KeyViews) hold every row it reads —
// and the operand fold visits exactly the keys the crypto run asks its
// plainSource for, so Warm fills precisely what inference consumes.
func TestDryRunMatchesCrypto(t *testing.T) {
	params := tinyParams()
	top := params.MaxLevel()
	for _, prof := range []struct {
		name string
		make func() *cnn.Network
	}{{"tiny", cnn.NewTinyNet}, {"tinyconv", cnn.NewTinyConvNet}} {
		for _, mode := range []struct {
			name string
			opts Options
		}{{"ladder", Options{}}, {"bsgs", Options{BSGS: true}}} {
			t.Run(prof.name+"/"+mode.name, func(t *testing.T) {
				pnet := prof.make()
				pnet.InitWeights(61)
				net := CompileWith(pnet, params.Slots(), mode.opts)
				ctx := NewContext(params, 62, net.RotationsNeeded(top))

				live := NewRecorder()
				var liveKeys []operandKey
				img := randomImage(pnet.InC, pnet.InH, pnet.InW, 63)
				net.run(ctx, img, &cryptoBackend{ctx: ctx, rec: live, plain: recordKeys(&liveKeys, ctx.encodeOperand)}, nil)

				sameEvents(t, "Count", net.Count(top), live)
				aliased := sameKeyLevels(t, net, params, live)
				// On the N = 256 ring, ladder Tiny-MNIST rotates by two
				// amounts that share one Galois element.
				if prof.name == "tiny" && mode.name == "ladder" && aliased == 0 {
					t.Error("no aliased rotation amounts: the per-element maximum is not exercised")
				}
				if keys := foldKeys(net.prog, params, top); !slices.Equal(keys, liveKeys) {
					t.Fatalf("operand fold keys %v\ncrypto run requested %v", keys, liveKeys)
				}
			})
		}
	}
	t.Run("batched", func(t *testing.T) {
		pnet := cnn.NewTinyNet()
		pnet.InitWeights(64)
		bnet, err := CompileBatched(pnet, params.Slots())
		if err != nil {
			t.Fatal(err)
		}
		ctx := NewContext(params, 65, nil)
		images := []*cnn.Tensor{randomImage(1, 8, 8, 66), randomImage(1, 8, 8, 67)}

		live := NewRecorder()
		var liveKeys []operandKey
		if _, err := bnet.runBatch(ctx, images, &cryptoBackend{ctx: ctx, rec: live, plain: recordKeys(&liveKeys, ctx.encodeOperand)}); err != nil {
			t.Fatal(err)
		}

		sameEvents(t, "Count", bnet.Count(top), live)
		if keys := foldKeys(bnet.prog, params, top); !slices.Equal(keys, liveKeys) {
			t.Fatalf("operand fold keys %v\ncrypto run requested %v", keys, liveKeys)
		}
	})
}

// applyCounter wraps a Layer and counts its Apply calls.
type applyCounter struct {
	Layer
	calls *int
}

func (l applyCounter) Apply(b Backend, in *State) *State {
	*l.calls++
	return l.Layer.Apply(b, in)
}

// TestLoweredOnce pins that a compiled network is lowered once: after
// Compile, no count, key-set, cache, noise or evaluation entry point runs
// the layer code again — each reads the program.
func TestLoweredOnce(t *testing.T) {
	params := tinyParams()
	top := params.MaxLevel()
	for _, opts := range []Options{{}, {BSGS: true}} {
		pnet := cnn.NewTinyNet()
		pnet.InitWeights(68)
		net := CompileWith(pnet, params.Slots(), opts)
		ctx := NewContext(params, 69, net.RotationsNeeded(top))
		img := randomImage(pnet.InC, pnet.InH, pnet.InW, 70)
		in1, in2 := encryptInput(net, ctx, img), encryptInput(net, ctx, img)
		calls := 0
		for i, l := range net.Layers {
			net.Layers[i] = applyCounter{l, &calls}
		}

		net.Count(top)
		net.CountTraced(top)
		net.RotationsNeeded(top)
		cn := NewCompiledNetwork(net, params, ctx.Encoder, 0)
		cn.Warm(top)
		PlanCacheBytes(net, params, top)
		net.EstimatePrecision(params, 1)
		net.EvaluateEncrypted(cn.Backend(ctx, nil), in1)
		net.EvaluateTraced(NewCryptoBackend(ctx, nil), in2, &Tracer{})
		if calls != 0 {
			t.Fatalf("BSGS=%v: %d Layer.Apply calls after Compile, want 0", opts.BSGS, calls)
		}

		// The counter itself works: lowering the wrapped layers counts
		// one Apply per layer.
		lowerLayers(net.Layers, len(in1))
		if calls != len(net.Layers) {
			t.Fatalf("lowering counted %d Apply calls, want %d", calls, len(net.Layers))
		}
	}
}

// allocatedBytes returns the fewest bytes any of three calls of f
// allocated.
func allocatedBytes(f func()) uint64 {
	var best uint64
	for i := range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; i == 0 || n < best {
			best = n
		}
	}
	return best
}

// TestOwnedValuesEvaluateInPlace pins the mechanism behind the serve
// path's allocation figure: on the crypto backend, a warm evaluation —
// tiny BSGS, and batched tiny — runs each chain of PCmult→CCadd pairs as
// one multiply-accumulate and writes CCadd and Rescale results into dying
// owned values, so it allocates at most 60 % of the bytes the same
// evaluation allocates through passThrough, which receives the unfused
// call stream.
func TestOwnedValuesEvaluateInPlace(t *testing.T) {
	check := func(name string, eval func(wrap func(Backend) Backend)) {
		t.Helper()
		fused := allocatedBytes(func() { eval(func(b Backend) Backend { return b }) })
		unfused := allocatedBytes(func() { eval(func(b Backend) Backend { return passThrough{b} }) })
		if float64(fused) > 0.6*float64(unfused) {
			t.Errorf("%s: in-place evaluation allocated %d KB, unfused %d KB (%.0f %%), want at most 60 %%",
				name, fused>>10, unfused>>10, 100*float64(fused)/float64(unfused))
		}
		t.Logf("%s: in-place %d KB, unfused %d KB", name, fused>>10, unfused>>10)
	}

	params, net, ctx, img := compiledFixture(t, Options{BSGS: true})
	cn := NewCompiledNetwork(net, params, ctx.Encoder, 0)
	cn.Warm(params.MaxLevel())
	in := encryptInput(net, ctx, img)
	check("tiny BSGS", func(wrap func(Backend) Backend) { net.EvaluateEncrypted(wrap(cn.Backend(ctx, nil)), in) })

	pnet := cnn.NewTinyNet()
	pnet.InitWeights(11)
	bnet, err := CompileBatched(pnet, params.Slots())
	if err != nil {
		t.Fatal(err)
	}
	cb := NewCompiledBatched(bnet, params, ctx.Encoder, 0)
	cb.Warm(params.MaxLevel())
	packed, err := bnet.PackBatch([]*cnn.Tensor{img, img})
	if err != nil {
		t.Fatal(err)
	}
	var bin []*CT
	for _, v := range packed {
		bin = append(bin, ctx.EncryptVector(v))
	}
	check("batched tiny", func(wrap func(Backend) Backend) { bnet.Evaluate(wrap(cb.Backend(ctx, nil)), bin) })
}

// chainLayer is a layer of one output that emit builds from the inputs.
type chainLayer struct {
	name string
	emit func(b Backend, in []*CT) *CT
}

func (l chainLayer) Name() string  { return l.name }
func (chainLayer) Kind() LayerKind { return NKS }
func (chainLayer) OutElems() int   { return 1 }
func (l chainLayer) Apply(b Backend, in *State) *State {
	return &State{CTs: []*CT{l.emit(b, in.CTs)}, Kind: Contiguous, N: 1}
}

// TestFinishChainsFusedPairs: finish marks each maximal run of fused
// pairs in one layer whose CCadd accumulates the previous pair's sum, and
// ends a run where the next PCmult reads that sum or the layer ends.
func TestFinishChainsFusedPairs(t *testing.T) {
	w := func(c float64) Plain { return Plain{IsConst: true, Const: c} }
	p := lowerLayers([]Layer{
		chainLayer{"first", func(b Backend, in []*CT) *CT {
			x, y := in[0], in[1]
			s := b.PCmult(x, w(1))               // pc 0: the first sum's x
			s = b.CCadd(s, b.PCmult(y, w(2)))    // pc 1: chains to pc 3
			s = b.CCadd(s, b.PCmult(x, w(3)))    // pc 3: its sum is the next PCmult's operand
			s = b.CCadd(s, b.PCmult(s, w(4)))    // pc 5: chains to pc 7
			return b.CCadd(s, b.PCmult(y, w(5))) // pc 7: the layer ends
		}},
		chainLayer{"second", func(b Backend, in []*CT) *CT {
			return b.CCadd(in[0], b.PCmult(in[0], w(6))) // pc 9: a chain of one
		}},
	}, 2)
	var fused, chained []int
	for pc, c := range p.code {
		if c.flags&fuseNext != 0 {
			fused = append(fused, pc)
		}
		if c.flags&chainNext != 0 {
			chained = append(chained, pc)
		}
	}
	if !slices.Equal(fused, []int{1, 3, 5, 7, 9}) || !slices.Equal(chained, []int{1, 5}) {
		t.Fatalf("fused pairs at %v and chain links at %v, want [1 3 5 7 9] and [1 5]", fused, chained)
	}
}

// hazardLayer emits the shapes whose dying operands the evaluation does
// not own: inputs, both sides of a zero rotation, and RotateMany results
// whose amount repeats (the hoisted path returns one ciphertext for both).
// Writing into any of them changes an input or a value still live.
type hazardLayer struct{}

func (hazardLayer) Name() string    { return "hazard" }
func (hazardLayer) Kind() LayerKind { return KS }
func (hazardLayer) OutElems() int   { return 1 }

func (hazardLayer) Apply(b Backend, in *State) *State {
	s := b.CCadd(in.CTs[0], in.CTs[1]) // both inputs die here
	t := b.Rescale(b.Rotate(s, 0))     // the alias dies here; s lives on
	r := b.RotateMany(b.Rescale(s), []int{1, 1, 0})
	w := b.CCadd(r[0], t) // r[0] dies here; r[1] lives on
	out := b.CCadd(b.CCadd(w, r[1]), r[2])
	return &State{CTs: []*CT{out}, Kind: Contiguous, N: 1}
}

// TestOwnershipExcludesSharedValues: on a program made of those hazards,
// the in-place evaluation matches the unfused one byte for byte and
// leaves its inputs untouched.
func TestOwnershipExcludesSharedValues(t *testing.T) {
	params := tinyParams()
	p := lowerLayers([]Layer{hazardLayer{}}, 2)
	fresh := func() (*Context, []*CT) {
		ctx := NewContext(params, 71, []int{1})
		in := make([]*CT, 2)
		for i := range in {
			v := make([]float64, params.Slots())
			for j := range v {
				v[j] = float64((i+j)%9)/9 - 0.4
			}
			in[i] = ctx.EncryptVector(v)
		}
		return ctx, in
	}
	checkFusedMatchesUnfused(t, "hazards", fresh, func(b Backend, in []*CT) []*CT {
		return []*CT{p.run(b, in, nil)[p.outputs()[0]]}
	})
}

// TestKeyViews: KeyViews trims each key to its fold level, drops keys the
// program never uses, and leaves a missing key missing and a key shorter
// than its use as it is, so evaluation still fails by name.
func TestKeyViews(t *testing.T) {
	params := tinyParams()
	top := params.MaxLevel()
	pnet := cnn.NewTinyNet()
	pnet.InitWeights(68)
	net := Compile(pnet, params.Slots())
	relin, galois := net.galoisLevels(params, top)
	if relin == 0 || relin >= params.L || len(galois) < 2 {
		t.Fatalf("fold gave relinearization level %d and %d Galois elements", relin, len(galois))
	}

	kg := ckks.NewKeyGenerator(params, 69)
	sk := kg.GenSecretKey()
	rlk := kg.GenRelinearizationKey(sk)
	unused := params.Slots() / 2 // no ladder of the tiny net rotates by it
	rtk := kg.GenRotationKeys(sk, append(net.RotationsNeeded(top), unused))
	missing := params.GaloisElementForRotation(net.RotationsNeeded(top)[0])
	delete(rtk.Keys, missing)
	var short uint64
	for g, l := range galois {
		if g != missing && l > 1 {
			short = g
			rtk.Keys[g] = rtk.Keys[g].AtLevel(l - 1)
			break
		}
	}

	vrlk, vrtk := net.KeyViews(params, top, rlk, rtk)
	if vrlk.Level() != relin {
		t.Errorf("relinearization view at level %d, fold %d", vrlk.Level(), relin)
	}
	if _, ok := vrtk.Keys[params.GaloisElementForRotation(unused)]; ok {
		t.Error("a key the program never uses was kept")
	}
	if _, ok := vrtk.Keys[missing]; ok {
		t.Error("a missing key appeared")
	}
	if len(vrtk.Keys) != len(galois)-1 {
		t.Errorf("%d views, want %d", len(vrtk.Keys), len(galois)-1)
	}
	for g, swk := range vrtk.Keys {
		want := galois[g]
		if g == short {
			want--
		}
		if swk.Level() != want {
			t.Errorf("element %d: view at level %d, want %d", g, swk.Level(), want)
		}
	}
}

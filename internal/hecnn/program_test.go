package hecnn

import (
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
	return func(w Plain, level int, scale float64) *ckks.Plaintext {
		*dst = append(*dst, operandKey{w.id, level, scale})
		return inner(w, level, scale)
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
	if d, l := fold.Rotations(), live.Rotations(); !slices.Equal(d, l) {
		t.Fatalf("%s: rotations %v, crypto run %v", what, d, l)
	}
}

// TestDryRunMatchesCrypto: the folds over a lowered program and a crypto
// evaluation of it agree. Event for event the count fold records the same
// per-layer (op, level) stream and the same rotation set as the crypto
// backend — so Count-derived Galois keys and profiles match evaluation —
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
				net.run(ctx, img, &cryptoBackend{ctx, live, recordKeys(&liveKeys, ctx.encodeOperand)}, nil)

				sameEvents(t, "Count", net.Count(top), live)
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
		if _, err := bnet.runBatch(ctx, images, &cryptoBackend{ctx, live, recordKeys(&liveKeys, ctx.encodeOperand)}); err != nil {
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
// path's allocation figure: on the crypto backend, a warm tiny BSGS
// evaluation fuses each PCmult into the CCadd that consumes it and writes
// CCadd and Rescale results into dying owned values, so it allocates at
// most 60 % of the bytes the same evaluation allocates through
// passThrough, which receives the unfused call stream.
func TestOwnedValuesEvaluateInPlace(t *testing.T) {
	params, net, ctx, img := compiledFixture(t, Options{BSGS: true})
	cn := NewCompiledNetwork(net, params, ctx.Encoder, 0)
	cn.Warm(params.MaxLevel())
	in := encryptInput(net, ctx, img)
	fused := allocatedBytes(func() { net.EvaluateEncrypted(cn.Backend(ctx, nil), in) })
	unfused := allocatedBytes(func() { net.EvaluateEncrypted(passThrough{cn.Backend(ctx, nil)}, in) })
	if float64(fused) > 0.6*float64(unfused) {
		t.Fatalf("in-place evaluation allocated %d KB, unfused %d KB (%.0f %%), want at most 60 %%",
			fused>>10, unfused>>10, 100*float64(fused)/float64(unfused))
	}
	t.Logf("in-place %d KB, unfused %d KB", fused>>10, unfused>>10)
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

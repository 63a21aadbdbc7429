package hecnn

import (
	"slices"
	"testing"

	"fxhenn/internal/ckks"
	"fxhenn/internal/cnn"
)

// operandKey is one plaintext operand request as a plainSource sees it.
type operandKey struct {
	layer      string
	seq, level int
	scale      float64
}

// recordKeys wraps inner (nil: return no plaintext) so every request is
// appended to dst.
func recordKeys(dst *[]operandKey, inner plainSource) plainSource {
	return func(layer string, seq, level int, scale float64, w Plain) *ckks.Plaintext {
		*dst = append(*dst, operandKey{layer, seq, level, scale})
		if inner == nil {
			return nil
		}
		return inner(layer, seq, level, scale, w)
	}
}

// sameEvents fails unless two traces hold the same per-layer (op, level)
// streams and rotation sets.
func sameEvents(t *testing.T, what string, dry, live *Recorder) {
	t.Helper()
	if len(dry.Layers) != len(live.Layers) {
		t.Fatalf("%s: %d layers, crypto run %d", what, len(dry.Layers), len(live.Layers))
	}
	for i, dl := range dry.Layers {
		if ll := live.Layers[i]; dl.Layer != ll.Layer || !slices.Equal(dl.Events, ll.Events) {
			t.Fatalf("%s: layer %d is %s %v, crypto run %s %v", what, i, dl.Layer, dl.Events, ll.Layer, ll.Events)
		}
	}
	if d, l := dry.Rotations(), live.Rotations(); !slices.Equal(d, l) {
		t.Fatalf("%s: rotations %v, crypto run %v", what, d, l)
	}
}

// TestDryRunMatchesCrypto: the dry-run walker and the crypto backend see
// one plan. Event for event they record the same per-layer (op, level)
// stream and the same rotation set — so Count-derived Galois keys and
// profiles match evaluation — and the exact-schedule walk asks for every
// plaintext operand under the key the crypto run looks up, so Warm fills
// precisely what inference consumes.
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
				var liveKeys, dryKeys []operandKey
				img := randomImage(pnet.InC, pnet.InH, pnet.InW, 63)
				net.run(ctx, img, newCryptoBackend(ctx, live, recordKeys(&liveKeys, ctx.encodeOperand)), nil)

				sameEvents(t, "Count", net.Count(top), live)
				exact := NewRecorder()
				net.dryRun(&dryBackend{rec: exact, params: &params, visit: recordKeys(&dryKeys, nil)}, top, nil)
				sameEvents(t, "exact-schedule walk", exact, live)
				if !slices.Equal(dryKeys, liveKeys) {
					t.Fatalf("dry-run operand keys %v\ncrypto run requested %v", dryKeys, liveKeys)
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
		var liveKeys, dryKeys []operandKey
		if _, err := bnet.runBatch(ctx, images, newCryptoBackend(ctx, live, recordKeys(&liveKeys, ctx.encodeOperand))); err != nil {
			t.Fatal(err)
		}

		sameEvents(t, "Count", bnet.Count(top), live)
		exact := NewRecorder()
		b := &dryBackend{rec: exact, params: &params, visit: recordKeys(&dryKeys, nil)}
		bnet.Evaluate(b, freshCTs(bnet.InputSize(), b.start(top)))
		sameEvents(t, "exact-schedule walk", exact, live)
		if !slices.Equal(dryKeys, liveKeys) {
			t.Fatalf("dry-run operand keys %v\ncrypto run requested %v", dryKeys, liveKeys)
		}
	})
}

package hecnn

import (
	"strings"
	"testing"

	"fxhenn/internal/ckks"
	"fxhenn/internal/cnn"
)

// tracedFixture runs one real encrypted inference with a live tracer and
// returns the tracer plus the recorder the backend wrote into.
func tracedFixture(t *testing.T, pnet *cnn.Network, params ckks.Parameters) (*Tracer, *Recorder, *Network) {
	t.Helper()
	pnet.InitWeights(7)
	net := Compile(pnet, params.Slots())
	ctx := NewContext(params, 7, net.RotationsNeeded(params.MaxLevel()))

	rec := NewRecorder()
	b := NewCryptoBackend(ctx, rec)
	tr := &Tracer{}
	var cts []*CT
	img := cnn.NewTensor(pnet.InC, pnet.InH, pnet.InW)
	for i := range img.Data {
		img.Data[i] = float64(i%7) / 7
	}
	for _, v := range net.PackInput(img) {
		cts = append(cts, ctx.EncryptVector(v))
	}
	net.EvaluateTraced(b, cts, tr)
	return tr, rec, net
}

// TestEvaluateTracedMatchesRecorderExactly pins the acceptance criterion:
// a live (real-crypto) inference with telemetry enabled emits a per-layer
// table whose op counts match the ckks trace exactly.
func TestEvaluateTracedMatchesRecorderExactly(t *testing.T) {
	tr, rec, net := tracedFixture(t, cnn.NewTinyConvNet(), ckks.NewParameters(8, 30, 7, 45))

	if len(tr.Stats) != len(net.Layers) {
		t.Fatalf("stats for %d layers, network has %d", len(tr.Stats), len(net.Layers))
	}
	for i, st := range tr.Stats {
		le := rec.Layer(st.Layer)
		if le == nil {
			t.Fatalf("layer %q missing from recorder", st.Layer)
		}
		if st.Layer != net.Layers[i].Name() {
			t.Fatalf("stat %d is %q, want layer order %q", i, st.Layer, net.Layers[i].Name())
		}
		if st.HOPs != le.HOPs() {
			t.Fatalf("%s: stat HOPs %d != trace %d", st.Layer, st.HOPs, le.HOPs())
		}
		if st.KeySwitches != le.KeySwitches() {
			t.Fatalf("%s: stat KS %d != trace %d", st.Layer, st.KeySwitches, le.KeySwitches())
		}
		for op := ckks.Op(0); op < ckks.NumOps; op++ {
			if st.Ops[op] != le.Count(op) {
				t.Fatalf("%s: op %v count %d != trace %d", st.Layer, op, st.Ops[op], le.Count(op))
			}
		}
		wantLevel := 0
		for _, e := range le.Events {
			if e.Level > wantLevel {
				wantLevel = e.Level
			}
		}
		if st.Level != wantLevel {
			t.Fatalf("%s: level %d != trace max level %d", st.Layer, st.Level, wantLevel)
		}
		if st.Wall <= 0 {
			t.Fatalf("%s: non-positive wall time %v", st.Layer, st.Wall)
		}
	}
	if tr.TotalWall() <= 0 {
		t.Fatal("total wall time not positive")
	}
}

// TestTracedStatsSumToRecorderTotals: the per-layer stats aggregate to the
// recorder's HOP/KS totals (Table VI/VII shape).
func TestTracedStatsSumToRecorderTotals(t *testing.T) {
	tr, rec, _ := tracedFixture(t, cnn.NewTinyNet(), ckks.NewParameters(8, 30, 7, 45))
	hops, ks := 0, 0
	for _, st := range tr.Stats {
		hops += st.HOPs
		ks += st.KeySwitches
	}
	if hops != rec.TotalHOPs() || ks != rec.TotalKeySwitches() {
		t.Fatalf("stats total %d/%d != recorder %d/%d", hops, ks, rec.TotalHOPs(), rec.TotalKeySwitches())
	}
}

// TestLiveMNISTEmitsPaperShapedTable runs a real encrypted FxHENN-MNIST
// inference (N=8192, the paper's parameters) with telemetry enabled and
// checks the emitted per-layer table against the ckks trace. ~15s of real
// CKKS; skipped under -short.
func TestLiveMNISTEmitsPaperShapedTable(t *testing.T) {
	if testing.Short() {
		t.Skip("full-parameter encrypted MNIST inference (~15s)")
	}
	tr, rec, net := tracedFixture(t, cnn.NewMNISTNet(), ckks.ParamsMNIST())
	if len(tr.Stats) != len(net.Layers) {
		t.Fatalf("stats for %d layers, want %d", len(tr.Stats), len(net.Layers))
	}
	hops := 0
	for _, st := range tr.Stats {
		le := rec.Layer(st.Layer)
		if st.HOPs != le.HOPs() || st.KeySwitches != le.KeySwitches() {
			t.Fatalf("%s: live table %d/%d != trace %d/%d",
				st.Layer, st.HOPs, st.KeySwitches, le.HOPs(), le.KeySwitches())
		}
		if st.Wall <= 0 {
			t.Fatalf("%s: no wall time measured", st.Layer)
		}
		hops += st.HOPs
	}
	if hops != rec.TotalHOPs() {
		t.Fatalf("table HOPs %d != trace %d", hops, rec.TotalHOPs())
	}
	// Cnv1 is pinned exactly by Listing 1: 25 × (PCmult, Rescale, CCadd−1) + bias.
	if cnv1 := tr.Stats[0]; cnv1.HOPs != 75 {
		t.Fatalf("Cnv1 HOPs %d, want 75 (Table IV)", cnv1.HOPs)
	}
	var sb strings.Builder
	WriteLayerTable(&sb, tr.Stats)
	for _, want := range []string{"Layer", "Cnv1", "total"} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("layer table missing %q:\n%s", want, sb.String())
		}
	}
	t.Logf("live FxHENN-MNIST per-layer table:\n%s", sb.String())
}

// nopBackend returns every operand unchanged without allocating: it
// isolates the interpreter's own cost.
type nopBackend struct{ rots []*CT }

func (nopBackend) SetLayer(string)                    {}
func (nopBackend) PCmult(x *CT, _ Plain) *CT          { return x }
func (nopBackend) PCadd(x *CT, _ Plain) *CT           { return x }
func (nopBackend) CCadd(x, _ *CT) *CT                 { return x }
func (nopBackend) Square(x *CT) *CT                   { return x }
func (nopBackend) Rescale(x *CT) *CT                  { return x }
func (nopBackend) Rotate(x *CT, _ int) *CT            { return x }
func (b nopBackend) RotateMany(_ *CT, ks []int) []*CT { return b.rots[:len(ks)] }

// TestEvaluateTracedNilAddsNothing pins the acceptance criterion that the
// traced entry point with telemetry disabled (nil tracer) allocates
// exactly what the untraced one does — and that the interpreter itself
// allocates one value table per evaluation and nothing per instruction.
func TestEvaluateTracedNilAddsNothing(t *testing.T) {
	for _, opts := range []Options{{}, {BSGS: true}} {
		pnet := cnn.NewTinyNet()
		pnet.InitWeights(3)
		net := CompileWith(pnet, 256, opts)
		b := &nopBackend{rots: make([]*CT, 256)}
		cts := make([]*CT, net.prog.inputs)
		for i := range cts {
			cts[i] = &CT{level: 7}
		}

		plain := testing.AllocsPerRun(20, func() { net.EvaluateEncrypted(b, cts) })
		traced := testing.AllocsPerRun(20, func() { net.EvaluateTraced(b, cts, nil) })
		if traced != plain {
			t.Fatalf("nil-tracer evaluate allocates %.1f/run, untraced %.1f/run — telemetry-disabled path must add zero allocations", traced, plain)
		}
		if plain != 1 {
			t.Fatalf("BSGS=%v: evaluating %d instructions allocates %.1f/run, want the one value table", opts.BSGS, len(net.prog.code), plain)
		}
	}
}

// TestTracerSinkStreamsLayers: the sink sees each layer once, in order.
func TestTracerSinkStreamsLayers(t *testing.T) {
	pnet := cnn.NewTinyNet()
	pnet.InitWeights(3)
	net := Compile(pnet, 256)
	tr := &Tracer{}
	var seen []string
	tr.Sink = func(st LayerStat) { seen = append(seen, st.Layer) }

	cts := make([]*CT, net.prog.inputs)
	for i := range cts {
		cts[i] = &CT{level: 7}
	}
	b := &nopBackend{rots: make([]*CT, 256)}
	net.EvaluateTraced(b, cts, tr)
	if len(seen) != len(net.Layers) {
		t.Fatalf("sink saw %d layers, want %d", len(seen), len(net.Layers))
	}
	for i, l := range net.Layers {
		if seen[i] != l.Name() {
			t.Fatalf("sink order[%d] = %q, want %q", i, seen[i], l.Name())
		}
	}
	// Re-running with the same tracer resets Stats (no unbounded growth).
	net.EvaluateTraced(b, cts, tr)
	if len(tr.Stats) != len(net.Layers) {
		t.Fatalf("stats grew across runs: %d", len(tr.Stats))
	}
}

// Package hecnn implements LoLa-style packed HE-CNN inference (§II-B): the
// translation of convolutional networks into sequences of CKKS HE operations
// over batched ciphertexts, exactly the workload FxHENN's accelerator runs.
//
// Every layer is written once against the Backend interface and can then be
// (a) executed functionally on real ciphertexts, or (b) dry-run to count HE
// operations per layer — the per-layer profiles ("HOPs", "KS") that drive
// the paper's resource models and design space exploration. The paper's
// point that "to make an accurate evaluation, we must extract the HE
// operations and data relations at this level" is this package.
//
// Three Backend implementations exist. cryptoBackend evaluates on real
// ciphertexts; the only thing its uncached, positional-cache and
// value-cache forms differ in is the plainSource its plaintext operands
// come from. dryBackend walks the same plan with no cryptography and
// serves every derived view of it — op counts and rotation sets, cache
// warming, cache sizing — from one level/scale schedule. noiseBackend
// propagates analytic error bounds.
//
// Parallelism contract: a compiled Network is immutable and safe to
// evaluate from many goroutines, but a Backend instance is not — its trace
// Recorder is unsynchronized, so concurrent evaluations (the mlaas server)
// use one Backend per request over a shared Context whose Evaluator has a
// nil Trace. Intra-evaluation parallelism (limb/digit/rotation granularity)
// comes from the worker pool attached to the Context's ckks parameters, not
// from this package.
package hecnn

import (
	"fmt"
	"sort"

	"fxhenn/internal/ckks"
)

// CT is an opaque ciphertext handle passed between layers. The crypto
// backend stores a real ciphertext; the dry-run backend tracks only the
// level/scale bookkeeping needed to emit a faithful trace.
type CT struct {
	ct    *ckks.Ciphertext // crypto backend only
	level int
	scale float64
	noise *ckks.NoiseEstimate // noise backend only
}

// Level returns the handle's CKKS level.
func (c *CT) Level() int { return c.level }

// Plain is a lazily-built plaintext operand: Make produces the slot vector.
// The dry-run backend never calls Make, so dry runs over networks with tens
// of thousands of plaintext operands (FxHENN-CIFAR10) stay cheap.
//
// IsConst marks an operand whose slot vector is one scalar broadcast to
// every slot — the shape of every weight and bias in CryptoNets-style
// batched packing. Crypto backends encode such operands through
// ckks.Encoder.EncodeConst (one rounding and a per-limb fill, no FFT)
// instead of Make + Encode; Make stays valid for backends that need the
// full vector.
type Plain struct {
	Make    func() []float64
	IsConst bool
	Const   float64
}

// Backend executes or records HE operations.
type Backend interface {
	// SetLayer directs subsequent operations' trace events to the named
	// HE-CNN layer.
	SetLayer(name string)
	// PCmult multiplies by a plaintext (no rescale).
	PCmult(x *CT, w Plain) *CT
	// PCadd adds a plaintext encoded at x's exact scale.
	PCadd(x *CT, w Plain) *CT
	// CCadd adds two ciphertexts.
	CCadd(x, y *CT) *CT
	// Square computes x² with relinearization (records CCmult + KeySwitch).
	Square(x *CT) *CT
	// Rescale drops one level.
	Rescale(x *CT) *CT
	// Rotate rotates slots left by k (k may be negative; k=0 is free).
	Rotate(x *CT, k int) *CT
	// RotateMany rotates x by every amount in ks, returning results in
	// order. The crypto backend computes all rotations of the batch from
	// one shared hoisted keyswitch decomposition (Halevi-Shoup), so a layer
	// that needs many rotations of the same ciphertext pays the expensive
	// digit decomposition once; other backends fall back to per-k Rotate.
	RotateMany(x *CT, ks []int) []*CT
}

// LayerEvents is the recorded HE-operation stream of one HE-CNN layer.
type LayerEvents struct {
	Layer  string
	Events []ckks.Event
}

// HOPs returns the layer's total HE operation count.
func (le *LayerEvents) HOPs() int { return len(le.Events) }

// KeySwitches returns the layer's KeySwitch (Relinearize+Rotate) count.
func (le *LayerEvents) KeySwitches() int {
	n := 0
	for _, e := range le.Events {
		if e.Op.IsKeySwitch() {
			n++
		}
	}
	return n
}

// Count returns the number of events of op.
func (le *LayerEvents) Count(op ckks.Op) int {
	n := 0
	for _, e := range le.Events {
		if e.Op == op {
			n++
		}
	}
	return n
}

// Recorder accumulates per-layer traces and the set of rotation amounts the
// network requires (for Galois key generation).
type Recorder struct {
	Layers    []*LayerEvents
	byName    map[string]*LayerEvents
	current   *LayerEvents
	rotations map[int]struct{}
}

// NewRecorder creates an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{byName: map[string]*LayerEvents{}, rotations: map[int]struct{}{}}
}

// SetLayer switches the active layer.
func (r *Recorder) SetLayer(name string) {
	if le, ok := r.byName[name]; ok {
		r.current = le
		return
	}
	le := &LayerEvents{Layer: name}
	r.byName[name] = le
	r.Layers = append(r.Layers, le)
	r.current = le
}

// record appends one event to the active layer; a nil recorder (an
// untraced dry run) drops it.
func (r *Recorder) record(op ckks.Op, level int) {
	if r == nil {
		return
	}
	if r.current == nil {
		r.SetLayer("?")
	}
	r.current.Events = append(r.current.Events, ckks.Event{Op: op, Level: level})
}

func (r *Recorder) recordRotation(k int) {
	if r == nil {
		return
	}
	r.rotations[k] = struct{}{}
}

// Rotations returns the sorted set of rotation amounts used.
func (r *Recorder) Rotations() []int {
	out := make([]int, 0, len(r.rotations))
	for k := range r.rotations {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// TotalHOPs sums all layers' operation counts (the "HOPs" column of
// Table VI).
func (r *Recorder) TotalHOPs() int {
	n := 0
	for _, l := range r.Layers {
		n += l.HOPs()
	}
	return n
}

// TotalKeySwitches sums KeySwitch counts (the "KS" column of Table VII).
func (r *Recorder) TotalKeySwitches() int {
	n := 0
	for _, l := range r.Layers {
		n += l.KeySwitches()
	}
	return n
}

// Layer returns the trace of the named layer, or nil.
func (r *Recorder) Layer(name string) *LayerEvents { return r.byName[name] }

// plainSource supplies the encoded plaintext for the seq-th plaintext
// operand of a layer at the (level, scale) the schedule consumes it at.
// Evaluation order is deterministic, so (layer, seq) names an operand
// stably across requests. Its three forms — Context.encodeOperand
// (uncached), CompiledNetwork's positional cache and CompiledBatched's
// value cache — are all that distinguishes one crypto backend from
// another, and a dry run that warms or sizes a cache calls the very
// function the crypto path looks up with, so the two can never disagree
// on a key.
type plainSource func(layer string, seq, level int, scale float64, w Plain) *ckks.Plaintext

// operandSeq numbers the plaintext operands of the active layer.
type operandSeq struct {
	layer string
	seq   int
}

func (o *operandSeq) setLayer(name string) { o.layer, o.seq = name, 0 }

// operand fetches the next operand of the active layer from src.
func (o *operandSeq) operand(src plainSource, level int, scale float64, w Plain) *ckks.Plaintext {
	seq := o.seq
	o.seq++
	return src(o.layer, seq, level, scale, w)
}

// cryptoBackend executes operations on real ciphertexts, taking plaintext
// operands from plain and recording the same trace as a dry run.
type cryptoBackend struct {
	ctx   *Context
	rec   *Recorder
	plain plainSource
	operandSeq
}

// NewCryptoBackend returns a Backend executing on ctx and tracing into rec
// (rec may be nil to skip tracing). Plaintext operands are encoded on use.
func NewCryptoBackend(ctx *Context, rec *Recorder) Backend {
	return newCryptoBackend(ctx, rec, ctx.encodeOperand)
}

func newCryptoBackend(ctx *Context, rec *Recorder, plain plainSource) Backend {
	if rec == nil {
		rec = NewRecorder()
	}
	return &cryptoBackend{ctx: ctx, rec: rec, plain: plain}
}

func (b *cryptoBackend) SetLayer(name string) {
	b.rec.SetLayer(name)
	b.setLayer(name)
}

func (b *cryptoBackend) PCmult(x *CT, w Plain) *CT {
	level := x.ct.Level()
	out := b.ctx.Eval.MulPlainNew(x.ct, b.operand(b.plain, level, b.ctx.Params.Scale, w))
	b.rec.record(ckks.OpPCmult, level)
	return wrap(out)
}

func (b *cryptoBackend) PCadd(x *CT, w Plain) *CT {
	level := x.ct.Level()
	out := b.ctx.Eval.AddPlainNew(x.ct, b.operand(b.plain, level, x.ct.Scale, w))
	b.rec.record(ckks.OpPCadd, level)
	return wrap(out)
}

func (b *cryptoBackend) CCadd(x, y *CT) *CT {
	out := b.ctx.Eval.AddNew(x.ct, y.ct)
	b.rec.record(ckks.OpCCadd, out.Level())
	return wrap(out)
}

func (b *cryptoBackend) Square(x *CT) *CT {
	out := b.ctx.Eval.MulNew(x.ct, x.ct)
	b.rec.record(ckks.OpCCmult, x.ct.Level())
	b.rec.record(ckks.OpRelin, x.ct.Level())
	return wrap(out)
}

func (b *cryptoBackend) Rescale(x *CT) *CT {
	out := b.ctx.Eval.RescaleNew(x.ct)
	b.rec.record(ckks.OpRescale, x.ct.Level())
	return wrap(out)
}

func (b *cryptoBackend) Rotate(x *CT, k int) *CT {
	if k == 0 {
		return x
	}
	out := b.ctx.Eval.RotateNew(x.ct, k)
	b.rec.record(ckks.OpRotate, x.ct.Level())
	b.rec.recordRotation(k)
	return wrap(out)
}

func (b *cryptoBackend) RotateMany(x *CT, ks []int) []*CT {
	nonzero := 0
	for _, k := range ks {
		if k != 0 {
			nonzero++
		}
	}
	// A shared decomposition only pays off from the second rotation.
	if nonzero < 2 {
		return rotateEach(b, x, ks)
	}
	rot := b.ctx.Eval.RotateHoisted(x.ct, ks)
	out := make([]*CT, len(ks))
	for i, k := range ks {
		if k == 0 {
			out[i] = x
			continue
		}
		b.rec.record(ckks.OpRotate, x.ct.Level())
		b.rec.recordRotation(k)
		out[i] = wrap(rot[k])
	}
	return out
}

// dryBackend walks a compiled plan without ciphertexts. It is the single
// backend behind op counting (NewCountBackend, Count, RotationsNeeded),
// cache warming (Warm) and cache sizing (PlanCacheBytes); each part is
// optional:
//   - rec, when set, receives the trace the crypto backend would record;
//   - params, when set, makes handles follow the evaluator's exact float64
//     level/scale schedule (the same multiplications and divisions in the
//     same order), instead of carrying the input scale through untouched;
//   - visit, when set, sees every plaintext operand under the key the
//     crypto backend's plainSource will be asked for. It requires params.
type dryBackend struct {
	rec    *Recorder
	params *ckks.Parameters
	visit  plainSource
	operandSeq
}

// NewCountBackend returns a Backend that records into rec without
// touching ciphertexts (inputs: FreshCT handles).
func NewCountBackend(rec *Recorder) Backend {
	return &dryBackend{rec: rec}
}

// start returns the handle a dry-run input begins as: a fresh ciphertext
// at level, at the encoding scale when the schedule is exact.
func (b *dryBackend) start(level int) CT {
	if b.params == nil {
		return CT{level: level, scale: 1}
	}
	return CT{level: level, scale: b.params.Scale}
}

func (b *dryBackend) visitOperand(level int, scale float64, w Plain) {
	if b.visit != nil {
		b.operand(b.visit, level, scale, w)
	}
}

func (b *dryBackend) SetLayer(name string) {
	if b.rec != nil {
		b.rec.SetLayer(name)
	}
	b.setLayer(name)
}

func (b *dryBackend) PCmult(x *CT, w Plain) *CT {
	b.rec.record(ckks.OpPCmult, x.level)
	if b.params == nil {
		return &CT{level: x.level, scale: x.scale}
	}
	b.visitOperand(x.level, b.params.Scale, w)
	return &CT{level: x.level, scale: x.scale * b.params.Scale}
}

func (b *dryBackend) PCadd(x *CT, w Plain) *CT {
	b.rec.record(ckks.OpPCadd, x.level)
	b.visitOperand(x.level, x.scale, w)
	return &CT{level: x.level, scale: x.scale}
}

func (b *dryBackend) CCadd(x, y *CT) *CT {
	l := x.level
	if y.level < l {
		l = y.level
	}
	b.rec.record(ckks.OpCCadd, l)
	return &CT{level: l, scale: x.scale}
}

func (b *dryBackend) Square(x *CT) *CT {
	b.rec.record(ckks.OpCCmult, x.level)
	b.rec.record(ckks.OpRelin, x.level)
	return &CT{level: x.level, scale: x.scale * x.scale}
}

func (b *dryBackend) Rescale(x *CT) *CT {
	if x.level < 2 {
		panic(fmt.Sprintf("hecnn: rescale below level 2 (level %d) — parameter chain too short", x.level))
	}
	b.rec.record(ckks.OpRescale, x.level)
	out := &CT{level: x.level - 1, scale: x.scale}
	if b.params != nil {
		// Mirrors Evaluator.RescaleNew: divide by the dropped prime.
		out.scale /= float64(b.params.Moduli[x.level-1])
	}
	return out
}

func (b *dryBackend) Rotate(x *CT, k int) *CT {
	if k == 0 {
		return x
	}
	b.rec.record(ckks.OpRotate, x.level)
	b.rec.recordRotation(k)
	return &CT{level: x.level, scale: x.scale}
}

func (b *dryBackend) RotateMany(x *CT, ks []int) []*CT { return rotateEach(b, x, ks) }

// rotateEach is RotateMany as one Rotate per amount.
func rotateEach(b Backend, x *CT, ks []int) []*CT {
	out := make([]*CT, len(ks))
	for i, k := range ks {
		out[i] = b.Rotate(x, k)
	}
	return out
}

// freshCTs returns count independent copies of proto: the input handles a
// dry run or the noise walk starts from.
func freshCTs(count int, proto CT) []*CT {
	cts := make([]*CT, count)
	for i := range cts {
		c := proto
		cts[i] = &c
	}
	return cts
}

func wrap(ct *ckks.Ciphertext) *CT {
	return &CT{ct: ct, level: ct.Level(), scale: ct.Scale}
}

// WrapCiphertext adopts a raw CKKS ciphertext (e.g. one deserialized from
// the network) as a layer input handle.
func WrapCiphertext(ct *ckks.Ciphertext) *CT { return wrap(ct) }

// FreshCT returns a cryptography-free ciphertext handle at the given
// level — an input for NewCountBackend dry runs and for other packages'
// tests. Crypto backends reject it.
func FreshCT(level int) *CT { return &CT{level: level, scale: 1} }

// Ciphertext returns the underlying CKKS ciphertext of a crypto-backend
// handle (nil for dry-run handles).
func (c *CT) Ciphertext() *ckks.Ciphertext { return c.ct }

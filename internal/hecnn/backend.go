// Package hecnn implements LoLa-style packed HE-CNN inference (§II-B): the
// translation of convolutional networks into sequences of CKKS HE operations
// over batched ciphertexts, exactly the workload FxHENN's accelerator runs.
//
// Every layer is written once against the Backend interface. Compiling a
// network runs that layer code exactly once, against a recording backend,
// and keeps the result: a flat program of HE operations (program.go).
// Evaluation is the one interpreter of that program; the per-layer
// HE-operation profiles ("HOPs", "KS") that drive the paper's resource
// models and design space exploration, the Galois rotation set, operand
// residency and its size, and the analytic noise bound are folds over it. The
// paper's point that "to make an accurate evaluation, we must extract the
// HE operations and data relations at this level" is this package.
//
// cryptoBackend is the one Backend that evaluates on real ciphertexts; its
// uncached and cached forms differ only in the plainSource its plaintext
// operands come from.
//
// Parallelism contract: a compiled Network and its program are immutable
// and safe to evaluate from many goroutines, but a Backend instance is not
// — its trace Recorder is unsynchronized, so concurrent evaluations (the
// mlaas server) use one Backend per request over a shared Context.
// Intra-evaluation parallelism (limb/digit/
// rotation granularity) comes from the worker pool attached to the
// Context's ckks parameters, not from this package.
package hecnn

import (
	"fxhenn/internal/ckks"
	"fxhenn/internal/ring"
)

// CT is an opaque ciphertext handle passed between layers. The crypto
// backend stores a real ciphertext; while a network is lowered, a handle
// names only the program value it stands for.
type CT struct {
	ct    *ckks.Ciphertext // crypto backend only
	level int
	id    int32 // lowering only
}

// Level returns the handle's CKKS level.
func (c *CT) Level() int { return c.level }

// Plain is a lazily-built plaintext operand: Make produces the slot vector.
// Lowering and counting never call Make, so programs with tens of
// thousands of plaintext operands (FxHENN-CIFAR10) stay cheap.
//
// IsConst marks an operand whose slot vector is Const broadcast to every
// slot — the shape of every weight and bias in CryptoNets-style batched
// packing. Such an operand needs no Make: crypto backends encode it
// through ckks.Encoder.EncodeConst into ckks's constant form (one
// rounding and one word per limb, no FFT and no rows), so each of the
// tens of thousands a batched program keeps resident costs level words.
type Plain struct {
	Make    func() []float64
	IsConst bool
	// id names the operand in its program (see program.plain); a cached
	// source encodes a Plain without one uncached.
	id    int32
	Const float64
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

// Recorder accumulates per-layer traces.
type Recorder struct {
	Layers  []*LayerEvents
	byName  map[string]*LayerEvents
	current *LayerEvents
}

// NewRecorder creates an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{byName: map[string]*LayerEvents{}}
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
// untraced evaluation or fold) drops it.
func (r *Recorder) record(op ckks.Op, level int) {
	if r == nil {
		return
	}
	if r.current == nil {
		r.SetLayer("?")
	}
	r.current.Events = append(r.current.Events, ckks.Event{Op: op, Level: level})
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

// plainSource supplies the encoded form of plaintext operand w under key
// k: the level and scale the schedule consumes it at, and its form. Its
// two forms — Context.encodeOperand (uncached) and the compiled handles'
// operand table — are all that distinguishes one crypto backend from
// another, and Warm fills the table under the keys of the same program
// fold, checking each resident plaintext against the key it is asked for.
type plainSource func(w Plain, k operandKey) *ckks.Plaintext

// encodePlain is the one encode rule: EncodeConst for a broadcast scalar,
// Encode of the slot vector otherwise, converted in place to Montgomery
// form for a PCmult operand.
func encodePlain(enc *ckks.Encoder, w Plain, k operandKey) *ckks.Plaintext {
	var pt *ckks.Plaintext
	if w.IsConst {
		pt = enc.EncodeConst(w.Const, k.level, k.scale)
	} else {
		pt = enc.Encode(w.Make(), k.level, k.scale)
	}
	if k.mont {
		enc.MForm(pt)
	}
	return pt
}

// cryptoBackend executes operations on real ciphertexts, taking plaintext
// operands from plain and recording each op into rec (when not nil). cts
// and pts are mulPlainSum's reused operand lists.
//
// The backend owns one row list, rows, for the evaluation it serves: ev
// is ctx.Eval scoped to it (ckks.Evaluator.WithRows), so every output and
// temporary comes from the list, the evaluator gives back its own
// temporaries, and run retires the owned values that die. The list grows
// to the evaluation's peak of live rows and is dropped with the backend;
// no row outlives it in a shared pool.
type cryptoBackend struct {
	ctx   *Context
	ev    *ckks.Evaluator
	rows  ring.Rows
	rec   *Recorder
	plain plainSource
	cts   []*ckks.Ciphertext
	pts   []*ckks.Plaintext
}

// NewCryptoBackend returns a Backend executing on ctx and tracing into rec
// (rec may be nil to skip tracing). Plaintext operands are encoded on use.
func NewCryptoBackend(ctx *Context, rec *Recorder) Backend {
	return newCryptoBackend(ctx, rec, ctx.encodeOperand)
}

// newCryptoBackend returns a crypto backend with its own row list.
func newCryptoBackend(ctx *Context, rec *Recorder, plain plainSource) *cryptoBackend {
	b := &cryptoBackend{ctx: ctx, rec: rec, plain: plain}
	if ctx != nil { // RunBatch refuses a bad batch before it needs ctx
		b.ev = ctx.Eval.WithRows(&b.rows)
	}
	return b
}

// retire gives the rows of h, an owned value that just died, back to the
// backend's list, unless h is res, the value the dying instruction wrote
// its result into. A nil backend (any other Backend) or a nil h (a value
// a fused chain never materialized) retires nothing.
func (b *cryptoBackend) retire(h, res *CT) {
	if b == nil || h == nil || h == res {
		return
	}
	b.ev.Recycle(h.ct)
}

// mulOperand is w as PCmult consumes it at level: at the encoding scale,
// in Montgomery form.
func (b *cryptoBackend) mulOperand(w Plain, level int) *ckks.Plaintext {
	return b.plain(w, operandKey{w.id, level, b.ctx.Params.Scale, true})
}

func (b *cryptoBackend) SetLayer(name string) {
	if b.rec != nil {
		b.rec.SetLayer(name)
	}
}

func (b *cryptoBackend) PCmult(x *CT, w Plain) *CT {
	level := x.ct.Level()
	out := b.ev.MulPlainNew(x.ct, b.mulOperand(w, level))
	b.rec.record(ckks.OpPCmult, level)
	return WrapCiphertext(out)
}

func (b *cryptoBackend) PCadd(x *CT, w Plain) *CT {
	level := x.ct.Level()
	out := b.ev.AddPlainNew(x.ct, b.plain(w, operandKey{w.id, level, x.ct.Scale, false}))
	b.rec.record(ckks.OpPCadd, level)
	return WrapCiphertext(out)
}

func (b *cryptoBackend) CCadd(x, y *CT) *CT {
	out := b.ev.AddNew(x.ct, y.ct)
	b.rec.record(ckks.OpCCadd, out.Level())
	return WrapCiphertext(out)
}

func (b *cryptoBackend) Square(x *CT) *CT {
	out := b.ev.MulNew(x.ct, x.ct)
	b.rec.record(ckks.OpCCmult, x.ct.Level())
	b.rec.record(ckks.OpRelin, x.ct.Level())
	return WrapCiphertext(out)
}

func (b *cryptoBackend) Rescale(x *CT) *CT {
	out := b.ev.RescaleNew(x.ct)
	b.rec.record(ckks.OpRescale, x.ct.Level())
	return WrapCiphertext(out)
}

// term queues PCmult(x, w) as the next pair of a multiply-accumulate
// chain, asking plain for w now, where the unfused PCmult would.
func (b *cryptoBackend) term(x *CT, w Plain) {
	b.cts = append(b.cts, x.ct)
	b.pts = append(b.pts, b.mulOperand(w, x.ct.Level()))
}

// mulPlainSum runs the queued chain — PCmult(x_i, w_i) then CCadd(acc,
// product) for each term in order — as one multiply-accumulate into acc,
// a value the evaluation owns that dies at the first CCadd. It records
// events exactly as the unfused calls do, pair by pair.
func (b *cryptoBackend) mulPlainSum(acc *CT) *CT {
	at := acc.ct.Level()
	b.ev.MulPlainSum(acc.ct, b.cts, b.pts)
	for _, ct := range b.cts {
		at = min(at, ct.Level())
		b.rec.record(ckks.OpPCmult, ct.Level())
		b.rec.record(ckks.OpCCadd, at)
	}
	clear(b.cts)
	clear(b.pts)
	b.cts, b.pts = b.cts[:0], b.pts[:0]
	acc.level = acc.ct.Level()
	return acc
}

// addInto is CCadd(x, y) written into dst, whichever of x and y the
// evaluation owns and that dies here.
func (b *cryptoBackend) addInto(dst, x, y *CT) *CT {
	b.ev.Add(dst.ct, x.ct, y.ct)
	return b.adopt(dst, ckks.OpCCadd, dst.ct.Level())
}

// rescaleInPlace is Rescale(x) written into x, an owned value that dies
// here.
func (b *cryptoBackend) rescaleInPlace(x *CT) *CT {
	level := x.ct.Level()
	b.ev.Rescale(x.ct)
	return b.adopt(x, ckks.OpRescale, level)
}

// adopt records op at level and returns h, a handle whose ciphertext an
// in-place op just rewrote, with its level brought up to date.
func (b *cryptoBackend) adopt(h *CT, op ckks.Op, level int) *CT {
	b.rec.record(op, level)
	h.level = h.ct.Level()
	return h
}

func (b *cryptoBackend) Rotate(x *CT, k int) *CT {
	if k == 0 {
		return x
	}
	out := b.ev.RotateNew(x.ct, k)
	b.rec.record(ckks.OpRotate, x.ct.Level())
	return WrapCiphertext(out)
}

func (b *cryptoBackend) RotateMany(x *CT, ks []int) []*CT {
	nonzero := 0
	for _, k := range ks {
		if k != 0 {
			nonzero++
		}
	}
	out := make([]*CT, len(ks))
	// A shared decomposition only pays off from the second rotation.
	if nonzero < 2 {
		for i, k := range ks {
			out[i] = b.Rotate(x, k)
		}
		return out
	}
	rot := b.ev.RotateHoisted(x.ct, ks)
	for i, k := range ks {
		if k == 0 {
			out[i] = x
			continue
		}
		b.rec.record(ckks.OpRotate, x.ct.Level())
		out[i] = WrapCiphertext(rot[k])
	}
	return out
}

// WrapCiphertext adopts a raw CKKS ciphertext (e.g. one deserialized from
// the network) as a layer input handle.
func WrapCiphertext(ct *ckks.Ciphertext) *CT { return &CT{ct: ct, level: ct.Level()} }

// Ciphertext returns the underlying CKKS ciphertext of a crypto-backend
// handle (nil for any other handle).
func (c *CT) Ciphertext() *ckks.Ciphertext { return c.ct }

package main

// The traced pass's in-process laboratory for the crypto layers. Nothing
// here reaches inside a package: it times calls to public functions of
// modarith, ntt, ring and ckks at the workload's parameter set, wraps the
// public hecnn.Backend interface to time an evaluation layer by layer and
// operation by operation, and closes the loop the way the paper's Eq. 4–6
// do for hardware modules: Σ (operation count × cost of that operation at
// its level) against the measured evaluation, the remainder reported as
// hecnn.unattributed_share (allocation, GC, cache lookups, scheduling).
//
// Everything runs on one goroutine with no worker pool attached, so the
// costs and the evaluation they are summed against are both Workers=1.

import (
	"bytes"
	"runtime"
	"sort"
	"time"

	"fxhenn/internal/ckks"
	"fxhenn/internal/hecnn"
	"fxhenn/internal/parallel"
	"fxhenn/internal/ring"
)

// opClass indexes opClasses.
type opClass int

const (
	opPCmult opClass = iota
	opPCadd
	opCCadd
	opSquare
	opRescale
	opRotate
	opRotateHoisted
	numOpClasses
)

// opKey is an operation class at a ciphertext level; hoisted rotations
// additionally carry how many rotations shared the decomposition.
type opKey struct {
	class opClass
	level int
	rots  int
}

// traceBackend forwards to a real backend, timing every call and every
// layer (layers announce themselves through SetLayer).
type traceBackend struct {
	inner hecnn.Backend

	layer      string
	layerStart time.Time
	layerOrder []string
	layerWall  map[string]time.Duration

	opWall [numOpClasses]time.Duration
	counts map[opKey]int
}

func newTraceBackend(inner hecnn.Backend) *traceBackend {
	return &traceBackend{inner: inner, layerWall: map[string]time.Duration{}, counts: map[opKey]int{}}
}

func (b *traceBackend) closeLayer(now time.Time) {
	if b.layer == "" {
		return
	}
	if _, seen := b.layerWall[b.layer]; !seen {
		b.layerOrder = append(b.layerOrder, b.layer)
	}
	b.layerWall[b.layer] += now.Sub(b.layerStart)
}

func (b *traceBackend) SetLayer(name string) {
	now := time.Now()
	b.closeLayer(now)
	b.layer, b.layerStart = name, now
	b.inner.SetLayer(name)
}

// finish closes the last layer; call it when the evaluation returns.
func (b *traceBackend) finish() {
	b.closeLayer(time.Now())
	b.layer = ""
}

func (b *traceBackend) observe(k opKey, start time.Time) {
	b.opWall[k.class] += time.Since(start)
	b.counts[k]++
}

func (b *traceBackend) PCmult(x *hecnn.CT, w hecnn.Plain) *hecnn.CT {
	defer b.observe(opKey{class: opPCmult, level: x.Level()}, time.Now())
	return b.inner.PCmult(x, w)
}

func (b *traceBackend) PCadd(x *hecnn.CT, w hecnn.Plain) *hecnn.CT {
	defer b.observe(opKey{class: opPCadd, level: x.Level()}, time.Now())
	return b.inner.PCadd(x, w)
}

func (b *traceBackend) CCadd(x, y *hecnn.CT) *hecnn.CT {
	level := x.Level()
	if y.Level() < level {
		level = y.Level()
	}
	defer b.observe(opKey{class: opCCadd, level: level}, time.Now())
	return b.inner.CCadd(x, y)
}

func (b *traceBackend) Square(x *hecnn.CT) *hecnn.CT {
	defer b.observe(opKey{class: opSquare, level: x.Level()}, time.Now())
	return b.inner.Square(x)
}

func (b *traceBackend) Rescale(x *hecnn.CT) *hecnn.CT {
	defer b.observe(opKey{class: opRescale, level: x.Level()}, time.Now())
	return b.inner.Rescale(x)
}

func (b *traceBackend) Rotate(x *hecnn.CT, k int) *hecnn.CT {
	if k == 0 {
		return b.inner.Rotate(x, k)
	}
	defer b.observe(opKey{class: opRotate, level: x.Level()}, time.Now())
	return b.inner.Rotate(x, k)
}

func (b *traceBackend) RotateMany(x *hecnn.CT, ks []int) []*hecnn.CT {
	nonzero := 0
	for _, k := range ks {
		if k != 0 {
			nonzero++
		}
	}
	// The crypto backends hoist from the second rotation on and fall back
	// to plain rotations below that.
	key := opKey{class: opRotateHoisted, level: x.Level(), rots: nonzero}
	if nonzero < 2 {
		key = opKey{class: opRotate, level: x.Level()}
	}
	start := time.Now()
	out := b.inner.RotateMany(x, ks)
	if nonzero > 0 {
		b.opWall[key.class] += time.Since(start)
		if key.class == opRotate {
			b.counts[key] += nonzero
		} else {
			b.counts[key]++
		}
	}
	return out
}

// evaluable is one compiled network ready to be evaluated in process.
type evaluable struct {
	ctx *hecnn.Context
	// backend returns the network's cached serve-path backend.
	backend func(rec *hecnn.Recorder) hecnn.Backend
	// eval evaluates already-encrypted inputs and returns the level the
	// output ended at.
	eval        func(b hecnn.Backend) (outLevel int)
	encodeCalls func() int64
	// rotations are amounts the context holds Galois keys for.
	rotations []int
	// cacheBytes is the resident size of the warm plaintext set.
	cacheBytes int64
}

// labSpeed scales how long the laboratory runs; the smoke tests shrink it.
type labSpeed struct {
	batch     time.Duration // minimum wall per timing batch
	batches   int           // timing batches per operation (median taken)
	evalFor   time.Duration // repeat traced evaluations for this long…
	evalAtMax int           // …but no more than this many times
}

var (
	fullLab  = labSpeed{batch: 2 * time.Millisecond, batches: 5, evalFor: 6 * time.Second, evalAtMax: 5}
	smokeLab = labSpeed{batch: 100 * time.Microsecond, batches: 2, evalFor: 0, evalAtMax: 1}
)

func labSpeedFor(cfg runConfig) labSpeed {
	if cfg.Small {
		return smokeLab
	}
	return fullLab
}

// timeOp returns fn's median per-call time in microseconds. Calls are
// batched so that no timing is shorter than sp.batch; prep, when not nil,
// runs before every call outside the timing (for operations that consume
// their input).
func timeOp(sp labSpeed, prep, fn func()) float64 {
	calls := 1
	run := func() time.Duration {
		var total time.Duration
		for i := 0; i < calls; i++ {
			if prep != nil {
				prep()
			}
			start := time.Now()
			fn()
			total += time.Since(start)
		}
		return total
	}
	for run() < sp.batch && calls < 1<<20 {
		calls *= 2
	}
	per := make([]float64, sp.batches)
	for i := range per {
		per[i] = float64(run()) / float64(time.Microsecond) / float64(calls)
	}
	return median(per)
}

// kernelMetrics times the layers below ckks at params' ring: one limb for
// modarith and ntt, every ciphertext limb (the top level) for ring.
func kernelMetrics(r *runResult, sp labSpeed, params ckks.Parameters) {
	rg := params.Ring()
	n, top := rg.N, params.MaxLevel()
	sampler := ring.NewSampler(rg, 1)

	a, b, out := sampler.Uniform(1).Coeffs[0], sampler.Uniform(1).Coeffs[0], make([]uint64, n)
	r.Metrics["modarith.mul_mont_ns_per_coeff"] = 1000 * timeOp(sp, nil, func() { rg.Mods[0].MulMontVec(out, a, b) }) / float64(n)
	r.Metrics["ntt.forward_us"] = timeOp(sp, nil, func() { rg.Tables[0].Forward(a) })
	r.Metrics["ntt.inverse_us"] = timeOp(sp, nil, func() { rg.Tables[0].Inverse(a) })

	p, q, dst := sampler.Uniform(top), sampler.Uniform(top), rg.NewPoly(top)
	r.Metrics["ring.ntt_us"] = timeOp(sp, nil, func() { rg.NTT(p) })
	r.Metrics["ring.intt_us"] = timeOp(sp, nil, func() { rg.INTT(p) })
	r.Metrics["ring.mul_coeffs_us"] = timeOp(sp, nil, func() { rg.MulCoeffs(dst, p, q) })
	r.Metrics["ring.automorphism_us"] = timeOp(sp, nil, func() { rg.Automorphism(dst, p, 5) })
	var victim *ring.Poly
	r.Metrics["ring.div_round_us"] = timeOp(sp, func() { victim = p.Copy() }, func() { rg.DivRoundByLastModulus(victim) })
}

// opCosts holds the measured microsecond cost of each operation class at
// each level it was needed. A hoisted call of n rotations is modelled as
// base + n × perRot from a two-point fit. Networks that share a parameter
// set share a table: the cost of an operation is a property of the ring
// and the level, not of the weights or keys.
type opCosts struct {
	plain      map[opKey]float64 // rots = 0 keys
	hoistBase  map[int]float64   // by level
	hoistPerRt map[int]float64
}

func newOpCosts() *opCosts {
	return &opCosts{plain: map[opKey]float64{}, hoistBase: map[int]float64{}, hoistPerRt: map[int]float64{}}
}

func (c *opCosts) cost(k opKey) float64 {
	if k.class == opRotateHoisted {
		return c.hoistBase[k.level] + float64(k.rots)*c.hoistPerRt[k.level]
	}
	return c.plain[opKey{class: k.class, level: k.level}]
}

// labValues fills the slots of the ciphertexts the laboratory times.
func labValues(params ckks.Parameters) []float64 {
	values := make([]float64, params.Slots())
	for i := range values {
		values[i] = float64(i%13) / 13
	}
	return values
}

// fill measures, on ev's evaluator, every (class, level) of need that the
// table does not hold yet, in a fixed order so runs are comparable.
func (c *opCosts) fill(sp labSpeed, ev evaluable, need map[opKey]int) {
	ctx := ev.ctx
	params := ctx.Params
	top := params.MaxLevel()
	eval := ctx.Eval

	values := labValues(params)
	fresh := ctx.Encryptor.Encrypt(ctx.Encoder.Encode(values, top, params.Scale))
	at := func(level int) *ckks.Ciphertext {
		ct := fresh.Copy()
		ct.DropLevel(top - level)
		return ct
	}
	rots := ev.rotations
	hoistSet := hoistedSet(rots)

	measure := func(class opClass, level int) float64 {
		ct := at(level)
		switch class {
		case opPCmult:
			pt := ctx.Encoder.Encode(values, level, params.Scale)
			return timeOp(sp, nil, func() { eval.MulPlainNew(ct, pt) })
		case opPCadd:
			pt := ctx.Encoder.Encode(values, level, ct.Scale)
			return timeOp(sp, nil, func() { eval.AddPlainNew(ct, pt) })
		case opCCadd:
			other := at(level)
			return timeOp(sp, nil, func() { eval.AddNew(ct, other) })
		case opSquare:
			return timeOp(sp, nil, func() { eval.MulNew(ct, ct) })
		case opRescale:
			return timeOp(sp, nil, func() { eval.RescaleNew(ct) })
		case opRotate:
			if len(rots) == 0 {
				return 0
			}
			return timeOp(sp, nil, func() { eval.RotateNew(ct, rots[0]) })
		}
		return 0
	}
	hoisted := func(level int) (base, perRot float64) {
		if len(hoistSet) < 2 {
			return 0, 0
		}
		ct := at(level)
		few := timeOp(sp, nil, func() { eval.RotateHoisted(ct, hoistSet[:2]) })
		if len(hoistSet) == 2 {
			return 0, few / 2
		}
		all := timeOp(sp, nil, func() { eval.RotateHoisted(ct, hoistSet) })
		perRot = (all - few) / float64(len(hoistSet)-2)
		return few - 2*perRot, perRot
	}

	keys := make([]opKey, 0, len(need))
	for k := range need {
		keys = append(keys, opKey{class: k.class, level: k.level})
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].class != keys[j].class {
			return keys[i].class < keys[j].class
		}
		return keys[i].level > keys[j].level
	})
	for _, k := range keys {
		if k.class == opRotateHoisted {
			if _, done := c.hoistPerRt[k.level]; !done {
				c.hoistBase[k.level], c.hoistPerRt[k.level] = hoisted(k.level)
			}
			continue
		}
		if _, done := c.plain[k]; !done && (k.class != opRescale || k.level >= 2) {
			c.plain[k] = measure(k.class, k.level)
		}
	}
}

// hoistedSet is the rotations one hoisted call is timed with: eight, or
// all the context holds keys for.
func hoistedSet(rots []int) []int {
	if len(rots) > 8 {
		return rots[:8]
	}
	return rots
}

// ckksMetrics reports the ckks.* metrics: the cost of every operation
// class at the top level (measured into costs unless an evaluation already
// needed it there) and the client-side and wire operations.
func ckksMetrics(r *runResult, sp labSpeed, ev evaluable, costs *opCosts) {
	ctx := ev.ctx
	params := ctx.Params
	top := params.MaxLevel()

	atTop := map[opKey]int{}
	for c := opClass(0); c < numOpClasses; c++ {
		atTop[opKey{class: c, level: top}] = 1
	}
	costs.fill(sp, ev, atTop)

	r.Metrics["ckks.rotate_us"] = costs.plain[opKey{class: opRotate, level: top}]
	if n := len(hoistedSet(ev.rotations)); n >= 2 {
		r.Metrics["ckks.rotate_hoisted_us_per_rot"] = costs.cost(opKey{class: opRotateHoisted, level: top, rots: n}) / float64(n)
	}
	r.Metrics["ckks.mul_relin_us"] = costs.plain[opKey{class: opSquare, level: top}]
	r.Metrics["ckks.rescale_us"] = costs.plain[opKey{class: opRescale, level: top}]
	r.Metrics["ckks.mul_plain_us"] = costs.plain[opKey{class: opPCmult, level: top}]
	r.Metrics["ckks.add_us"] = costs.plain[opKey{class: opCCadd, level: top}]

	values := labValues(params)
	pt := ctx.Encoder.Encode(values, top, params.Scale)
	fresh := ctx.Encryptor.Encrypt(pt)
	r.Metrics["ckks.encode_us"] = timeOp(sp, nil, func() { ctx.Encoder.Encode(values, top, params.Scale) })
	r.Metrics["ckks.encrypt_us"] = timeOp(sp, nil, func() { ctx.Encryptor.Encrypt(pt) })
	r.Metrics["ckks.decrypt_decode_us"] = timeOp(sp, nil, func() { ctx.Encoder.Decode(ctx.Decryptor.Decrypt(fresh)) })
	var wire bytes.Buffer
	r.Metrics["ckks.marshal_us"] = timeOp(sp, nil, func() { wire.Reset(); fresh.WriteTo(&wire) }) //nolint:errcheck // bytes.Buffer
	raw := append([]byte(nil), wire.Bytes()...)
	r.Metrics["ckks.unmarshal_us"] = timeOp(sp, nil, func() { ckks.ReadCiphertext(bytes.NewReader(raw), params) }) //nolint:errcheck // round trip of our own bytes

	if rots := ev.rotations; len(rots) > 0 {
		const reps = 8
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < reps; i++ {
			ctx.Eval.RotateNew(fresh, rots[0])
		}
		runtime.ReadMemStats(&after)
		r.Metrics["ckks.allocs_per_rotate"] = float64(after.Mallocs-before.Mallocs) / reps
	}
}

// traceEvaluation runs ev (already evaluated once, so the allocator has
// grown) through a traceBackend a few times, keeps the run whose wall time
// is the median, and adds weight × its hecnn.* metrics, the closure check
// included, to r (tiny_cluster_open averages four networks this way).
// costs gains whatever operation costs the evaluation needed and the table
// lacked.
func traceEvaluation(r *runResult, sp labSpeed, ev evaluable, costs *opCosts, weight float64, spanRequest int) {
	type trial struct {
		tb       *traceBackend
		rec      *hecnn.Recorder
		wall     time.Duration
		outLevel int
	}
	encodesBefore := ev.encodeCalls()
	var trials []trial
	for begin := time.Now(); len(trials) == 0 || (len(trials) < sp.evalAtMax && time.Since(begin) < sp.evalFor); {
		rec := hecnn.NewRecorder()
		tb := newTraceBackend(ev.backend(rec))
		start := time.Now()
		outLevel := ev.eval(tb)
		tb.finish()
		trials = append(trials, trial{tb, rec, time.Since(start), outLevel})
	}
	encodes := float64(ev.encodeCalls()-encodesBefore) / float64(len(trials))
	sort.Slice(trials, func(i, j int) bool { return trials[i].wall < trials[j].wall })
	t := trials[len(trials)/2]

	costs.fill(sp, ev, t.tb.counts)
	measured := ms(t.wall)
	modeled := 0.0
	for k, n := range t.tb.counts {
		modeled += float64(n) * costs.cost(k) / 1000
	}

	add := func(name string, v float64) { r.Metrics[name] += weight * v }
	root := r.addSpan(0, spanRequest, "hecnn.evaluate", 0, measured)
	at := 0.0
	for _, l := range t.tb.layerOrder {
		wall := ms(t.tb.layerWall[l])
		add("hecnn.layer_ms."+l, wall)
		r.addSpan(root, spanRequest, "hecnn.layer."+l, at, wall)
		at += wall
	}
	for c, name := range opClasses {
		add("hecnn.op_ms."+name, ms(t.tb.opWall[c]))
	}
	rotations := 0
	for _, le := range t.rec.Layers {
		rotations += le.Count(ckks.OpRotate)
	}
	add("hecnn.evaluate_ms", measured)
	add("hecnn.hops", float64(t.rec.TotalHOPs()))
	add("hecnn.keyswitches", float64(t.rec.TotalKeySwitches()))
	add("hecnn.rotations", float64(rotations))
	add("hecnn.levels_used", float64(ev.ctx.Params.MaxLevel()-t.outLevel))
	add("hecnn.encode_calls", encodes)
	add("hecnn.modeled_ms", modeled)
	add("hecnn.unattributed_share", (measured-modeled)/measured)
}

// parallelSpeedup times plain (unwrapped) evaluations serially and with
// an nproc-worker pool attached to the context's ring, and reports the
// ratio. The pool's own counters are returned for workloads that have no
// server pool to read.
func parallelSpeedup(r *runResult, sp labSpeed, ev evaluable) parallel.Stats {
	params := ev.ctx.Params
	wall := func() float64 {
		reps := sp.evalAtMax
		if reps > 3 {
			reps = 3
		}
		times := make([]float64, reps)
		for i := range times {
			start := time.Now()
			ev.eval(ev.backend(nil))
			times[i] = time.Since(start).Seconds()
		}
		return median(times)
	}
	serial := wall()
	pool := parallel.New(0)
	params.AttachPool(pool)
	pooled := wall()
	params.AttachPool(nil)
	if pooled > 0 {
		r.Metrics["parallel.speedup"] = serial / pooled
	}
	return pool.Stats()
}

package hecnn

// The lowered program (see the package comment): evaluation interprets
// it (run); counts, key sets and their levels, cache keys and noise
// bounds fold over it (count, keyLevels, operands, EstimatePrecision),
// their levels and scales from one schedule fold.

import (
	"fmt"
	"math"
	"slices"
	"time"

	"fxhenn/internal/ckks"
)

// opcode names the Backend call an instruction makes.
type opcode uint8

const (
	opPCmult opcode = iota
	opPCadd
	opCCadd
	opSquare
	opRescale
	opRotate
	opRotateMany
)

// Bits of instr.flags. lastX and lastArg: the instruction is the final
// reader of x / of CCadd's second operand. ownX and ownArg additionally
// say the evaluation owns that dying value (see finish), so the crypto
// backend may write the instruction's result into it. fuseNext marks a
// PCmult whose product the next instruction, a CCadd with ownX, reads
// last as its second operand: the pair runs as one multiply-accumulate.
// chainNext marks a fused PCmult whose pair's sum the next pair, fused
// too and in the same layer, accumulates into: a maximal run of such
// pairs is one chain, and runs as one multiply-accumulate.
const (
	lastX uint8 = 1 << iota
	lastArg
	ownX
	ownArg
	fuseNext
	chainNext
)

// instr is one lowered Backend call. It reads value x and defines the
// next free value id — one per amount for RotateMany. arg is CCadd's
// second operand, the plain id (PCmult, PCadd), the rotation amount
// (Rotate) or the rotation-set index (RotateMany). It is 12 bytes
// with no pointer: batched MNIST lowers to 215,750 of them.
type instr struct {
	op    opcode
	flags uint8
	layer uint16
	x     int32
	arg   int32
}

// segment is one layer: code[previous end:end], the name SetLayer
// announces, and the value ids the layer outputs.
type segment struct {
	name string
	end  int
	outs []int32
}

// program is a lowered network. It is immutable once built and shared
// read-only by every concurrent evaluation.
type program struct {
	code    []instr
	layers  []segment
	plains  []Plain   // plain id i > 0 is plains[i-1]
	consts  []float64 // plain id i < 0 broadcasts consts[-i-1]
	rotSets [][]int   // RotateMany amounts
	inputs  int       // values 0..inputs-1 are the inputs
	values  int
}

// outputs returns the value ids an evaluation returns.
func (p *program) outputs() []int32 { return p.layers[len(p.layers)-1].outs }

// plain returns the operand with the given plain id.
func (p *program) plain(id int32) Plain {
	if id < 0 {
		return Plain{IsConst: true, Const: p.consts[-id-1], id: id}
	}
	return p.plains[id-1]
}

// lowering is the recording Backend a network is lowered through: each
// call appends one instruction and returns handles that carry only the id
// of the value they name.
type lowering struct {
	p      program
	consts map[float64]int32 // IsConst plains, interned by value
}

// newLowering starts a program over inputs fresh input values.
func newLowering(inputs int) (*lowering, []*CT) {
	lw := &lowering{p: program{inputs: inputs}, consts: map[float64]int32{}}
	in := make([]*CT, inputs)
	for i := range in {
		in[i] = lw.define()
	}
	return lw, in
}

func (lw *lowering) define() *CT {
	lw.p.values++
	return &CT{id: int32(lw.p.values - 1)}
}

// emit appends one instruction; the values defined next are its outputs.
func (lw *lowering) emit(op opcode, x *CT, arg int) *lowering {
	if len(lw.p.layers) > math.MaxUint16 {
		panic("hecnn: too many layers to lower")
	}
	lw.p.code = append(lw.p.code, instr{op: op, layer: uint16(len(lw.p.layers)), x: x.id, arg: int32(arg)})
	return lw
}

// plain returns w's plain id. An IsConst plain is interned by value, so
// equal broadcast scalars share one id and one cached encoding, and is
// kept as its scalar alone; every other plain is its own operand.
func (lw *lowering) plain(w Plain) int {
	if !w.IsConst {
		lw.p.plains = append(lw.p.plains, w)
		lw.p.plains[len(lw.p.plains)-1].id = int32(len(lw.p.plains))
		return len(lw.p.plains)
	}
	id, ok := lw.consts[w.Const]
	if !ok {
		lw.p.consts = append(lw.p.consts, w.Const)
		id = -int32(len(lw.p.consts))
		lw.consts[w.Const] = id
	}
	return int(id)
}

// endLayer closes the layer whose instructions were emitted since the
// previous call.
func (lw *lowering) endLayer(name string, outs []*CT) {
	seg := segment{name: name, end: len(lw.p.code), outs: make([]int32, len(outs))}
	for i, ct := range outs {
		seg.outs[i] = ct.id
	}
	lw.p.layers = append(lw.p.layers, seg)
}

// finish marks each value's last use (never the outputs') and which dying
// values the evaluation owns, fuses PCmult→CCadd pairs and chains them,
// and returns the program, its tables trimmed to length and the intern
// map dropped.
//
// A value is owned when an instruction of this evaluation defined it as a
// ciphertext no other value shares: never an input, and never either side
// of a rotation by zero — the crypto backend returns its operand itself —
// or of a RotateMany amount that repeats, whose results may share one
// ciphertext. Outputs never die, so they are never written into.
func (lw *lowering) finish() *program {
	p := lw.p
	p.code, p.plains, p.consts = slices.Clone(p.code), slices.Clone(p.plains), slices.Clone(p.consts)
	last := make([]int32, p.values)
	shared := make([]bool, p.values)
	for v := range p.inputs {
		shared[v] = true
	}
	product := make([]int32, len(p.code)) // the value a PCmult defines
	next := int32(p.inputs)
	for pc, c := range p.code {
		last[c.x] = int32(pc + 1)
		switch c.op {
		case opCCadd:
			last[c.arg] = int32(pc + 1)
		case opPCmult:
			product[pc] = next
		case opRotate:
			if c.arg == 0 {
				shared[c.x], shared[next] = true, true
			}
		case opRotateMany:
			ks := p.rotSets[c.arg]
			for i, k := range ks {
				repeats := slices.Index(ks, k) != i || slices.Contains(ks[i+1:], k)
				if k == 0 || repeats {
					shared[next+int32(i)] = true
				}
				if k == 0 {
					shared[c.x] = true
				}
			}
			next += int32(len(ks)) - 1
		}
		next++
	}
	for _, v := range p.outputs() {
		last[v] = 0
	}
	for v, pc := range last {
		if pc == 0 {
			continue
		}
		c := &p.code[pc-1]
		if c.x == int32(v) {
			c.flags |= lastX
			if !shared[v] {
				c.flags |= ownX
			}
		}
		if c.op == opCCadd && c.arg == int32(v) {
			c.flags |= lastArg
			if !shared[v] {
				c.flags |= ownArg
			}
		}
	}
	for pc := range len(p.code) - 1 {
		c, add := &p.code[pc], &p.code[pc+1]
		if c.op == opPCmult && add.op == opCCadd && add.layer == c.layer &&
			add.arg == product[pc] && add.x != add.arg && add.flags&(ownX|lastArg) == ownX|lastArg {
			c.flags |= fuseNext
		}
	}
	// Pair pc's sum is value product[pc]+1. The next pair continues the
	// chain when its CCadd accumulates into that sum and its PCmult does
	// not read it: the chain materializes no partial sum.
	for pc := 0; pc+3 < len(p.code); pc++ {
		c, mul, sum := &p.code[pc], &p.code[pc+2], product[pc]+1
		if c.flags&fuseNext != 0 && mul.flags&fuseNext != 0 && mul.layer == c.layer &&
			p.code[pc+3].x == sum && mul.x != sum {
			c.flags |= chainNext
		}
	}
	return &p
}

func (lw *lowering) SetLayer(string) {}

func (lw *lowering) PCmult(x *CT, w Plain) *CT {
	return lw.emit(opPCmult, x, lw.plain(w)).define()
}

func (lw *lowering) PCadd(x *CT, w Plain) *CT { return lw.emit(opPCadd, x, lw.plain(w)).define() }

func (lw *lowering) CCadd(x, y *CT) *CT { return lw.emit(opCCadd, x, int(y.id)).define() }

func (lw *lowering) Square(x *CT) *CT { return lw.emit(opSquare, x, 0).define() }

func (lw *lowering) Rescale(x *CT) *CT { return lw.emit(opRescale, x, 0).define() }

func (lw *lowering) Rotate(x *CT, k int) *CT { return lw.emit(opRotate, x, k).define() }

func (lw *lowering) RotateMany(x *CT, ks []int) []*CT {
	lw.emit(opRotateMany, x, len(lw.p.rotSets))
	lw.p.rotSets = append(lw.p.rotSets, slices.Clone(ks))
	out := make([]*CT, len(ks))
	for i := range out {
		out[i] = lw.define()
	}
	return out
}

// run is the one interpreter. It makes the Backend calls the layer code
// made while lowering, in order with the same arguments, and calls
// SetLayer at each layer start, also for a layer that emits nothing. One
// value table holds an evaluation; a slot is cleared at its value's last
// use, the outputs' never. A non-nil tracer gets each layer's stat: op
// counts from the count fold, wall time from this run.
//
// On the package's own crypto backend, run also acts on the ownership
// flags: a chain of fused PCmult→CCadd pairs becomes one
// multiply-accumulate into the first CCadd's dying first operand, and a
// CCadd or Rescale writes into an owned operand that dies there. Events,
// operand requests and ciphertexts are identical to the unfused calls,
// which every other Backend receives.
func (p *program) run(b Backend, in []*CT, tr *Tracer) []*CT {
	if len(in) != p.inputs {
		panic(fmt.Sprintf("hecnn: %s expects %d inputs, got %d", p.layers[0].name, p.inputs, len(in)))
	}
	if tr != nil {
		tr.Stats = p.count(in[0].Level(), nil)
	}
	cb, inPlace := b.(*cryptoBackend)
	own := uint8(0) // the ownership flags b may act on
	if inPlace {
		own = ownX | ownArg | fuseNext
	}
	vals := make([]*CT, p.values)
	copy(vals, in)
	next, pc := p.inputs, 0
	for li := range p.layers {
		var start time.Time
		if tr != nil {
			start = time.Now()
		}
		b.SetLayer(p.layers[li].name)
		for end := p.layers[li].end; pc < end; pc++ {
			c := &p.code[pc]
			x, n := vals[c.x], 1
			switch f := c.flags & own; c.op {
			case opPCmult:
				if f&fuseNext == 0 {
					vals[next] = b.PCmult(x, p.plain(c.arg))
					break
				}
				// Neither a product nor a partial sum is materialized:
				// the chain's last CCadd defines the one sum, accumulated
				// into the first CCadd's x.
				acc, first := vals[p.code[pc+1].x], pc
				for ; ; pc += 2 {
					cb.term(vals[p.code[pc].x], p.plain(p.code[pc].arg))
					if p.code[pc].flags&chainNext == 0 {
						break
					}
				}
				pc++
				n = pc - first + 1
				vals[next+n-1] = cb.mulPlainSum(acc)
				for _, d := range p.code[first+1 : pc+1] {
					d.release(vals)
				}
			case opPCadd:
				vals[next] = b.PCadd(x, p.plain(c.arg))
			case opCCadd:
				switch y := vals[c.arg]; {
				case f&ownX != 0:
					vals[next] = cb.addInto(x, x, y)
				case f&ownArg != 0:
					vals[next] = cb.addInto(y, x, y)
				default:
					vals[next] = b.CCadd(x, y)
				}
			case opSquare:
				vals[next] = b.Square(x)
			case opRescale:
				if f&ownX != 0 {
					vals[next] = cb.rescaleInPlace(x)
				} else {
					vals[next] = b.Rescale(x)
				}
			case opRotate:
				vals[next] = b.Rotate(x, int(c.arg))
			case opRotateMany:
				n = copy(vals[next:], b.RotateMany(x, p.rotSets[c.arg]))
			}
			next += n
			c.release(vals)
		}
		if tr != nil {
			tr.layerDone(li, time.Since(start))
		}
	}
	return vals
}

// release clears the slots of the values c is the last reader of.
func (c *instr) release(vals []*CT) {
	if c.flags&lastX != 0 {
		vals[c.x] = nil
	}
	if c.flags&lastArg != 0 {
		vals[c.arg] = nil
	}
}

// fold propagates one state per value over p and returns every value's
// state: inputs start at in, and step maps an instruction's operand states
// (y is set for CCadd only) and rotation amount k (Rotate, and each of
// RotateMany's amounts) to the state of the value it defines.
func fold[T any](p *program, in T, step func(c *instr, k int, x, y T) T) []T {
	s := make([]T, p.values)
	for i := range p.inputs {
		s[i] = in
	}
	next := p.inputs
	for pc := range p.code {
		c := &p.code[pc]
		var y T
		if c.op == opCCadd {
			y = s[c.arg]
		}
		ks := []int{int(c.arg)}
		if c.op == opRotateMany {
			ks = p.rotSets[c.arg]
		}
		for _, k := range ks {
			s[next] = step(c, k, s[c.x], y)
			next++
		}
	}
	return s
}

// sched is a value's place in the level/scale schedule.
type sched struct {
	level int
	scale float64
}

// schedule folds the level/scale schedule over p from inputs at
// startLevel, calling visit (when not nil) with each step's operands
// before it. With params, scales follow the evaluator's float64
// arithmetic exactly (the same multiplications and divisions in the same
// order) from inputs at the encoding scale; without, inputs start at scale
// 1 and only levels are meaningful. It panics where a rescale would leave
// fewer than one level.
func (p *program) schedule(params *ckks.Parameters, startLevel int, visit func(c *instr, k int, x, y sched)) []sched {
	in := sched{level: startLevel, scale: 1}
	if params != nil {
		in.scale = params.Scale
	}
	return fold(p, in, func(c *instr, k int, x, y sched) sched {
		if visit != nil {
			visit(c, k, x, y)
		}
		switch c.op {
		case opPCmult:
			if params != nil {
				x.scale *= params.Scale
			}
		case opCCadd:
			x.level = min(x.level, y.level)
		case opSquare:
			x.scale *= x.scale
		case opRescale:
			if x.level < 2 {
				panic(fmt.Sprintf("hecnn: rescale below level 2 (level %d) — parameter chain too short", x.level))
			}
			x.level--
			if params != nil {
				// Mirrors Evaluator.RescaleNew: divide by the dropped prime.
				x.scale /= float64(params.Moduli[x.level])
			}
		}
		return x
	})
}

// count folds p's HE-operation events from inputs at startLevel into one
// LayerStat per layer and, when rec is not nil, into rec exactly as the
// crypto backend records them (events and rotation set).
func (p *program) count(startLevel int, rec *Recorder) []LayerStat {
	stats := make([]LayerStat, len(p.layers))
	for i, seg := range p.layers {
		stats[i].Layer = seg.name
		if rec != nil {
			rec.SetLayer(seg.name) // every layer, in order, even if empty
		}
	}
	at := -1
	event := func(layer uint16, op ckks.Op, level int) {
		if rec != nil && int(layer) != at {
			at = int(layer)
			rec.SetLayer(stats[at].Layer)
		}
		stats[layer].add(op, level)
		rec.record(op, level)
	}
	p.schedule(nil, startLevel, func(c *instr, k int, x, y sched) {
		switch c.op {
		case opPCmult:
			event(c.layer, ckks.OpPCmult, x.level)
		case opPCadd:
			event(c.layer, ckks.OpPCadd, x.level)
		case opCCadd:
			event(c.layer, ckks.OpCCadd, min(x.level, y.level))
		case opSquare:
			event(c.layer, ckks.OpCCmult, x.level)
			event(c.layer, ckks.OpRelin, x.level)
		case opRescale:
			event(c.layer, ckks.OpRescale, x.level)
		case opRotate, opRotateMany:
			if k != 0 {
				event(c.layer, ckks.OpRotate, x.level)
				rec.recordRotation(k, x.level)
			}
		}
	})
	return stats
}

// keyLevels folds the highest level at which p, from inputs at
// startLevel, relinearizes (0 when it never does) and rotates by each
// nonzero amount: the levels its evaluation keys must hold.
func (p *program) keyLevels(startLevel int) (relin int, rots map[int]int) {
	rots = map[int]int{}
	p.schedule(nil, startLevel, func(c *instr, k int, x, _ sched) {
		switch c.op {
		case opSquare:
			relin = max(relin, x.level)
		case opRotate, opRotateMany:
			if k != 0 {
				rots[k] = max(rots[k], x.level)
			}
		}
	})
	return relin, rots
}

// operandKey names one encoded plaintext operand: a plain of the program
// at the level and scale the schedule consumes it at, in the form its
// consumer takes — so an interned scalar that PCmult and PCadd both
// consume at one level and scale is two operands.
type operandKey struct {
	plain int32
	level int
	scale float64
	mont  bool // Montgomery form: a PCmult operand (ckks.Encoder.MForm)
}

// operands calls visit with the key of every plaintext operand
// consumption, in evaluation order, under params' exact schedule from
// inputs at startLevel — the keys the crypto backend's plainSource is
// asked for.
func (p *program) operands(params *ckks.Parameters, startLevel int, visit func(operandKey)) {
	p.schedule(params, startLevel, func(c *instr, _ int, x, _ sched) {
		switch c.op {
		case opPCmult:
			visit(operandKey{c.arg, x.level, params.Scale, true})
		case opPCadd:
			visit(operandKey{c.arg, x.level, x.scale, false})
		}
	})
}

// maxAbs bounds w's slot magnitudes.
func maxAbs(w Plain) float64 {
	if w.IsConst {
		return math.Abs(w.Const)
	}
	m := 0.0
	for _, x := range w.Make() {
		if x > m {
			m = x
		}
		if -x > m {
			m = -x
		}
	}
	return m
}

// EstimatePrecision predicts the output error bound of the network for
// inputs bounded by inputMax, along with whether every layer's outputs
// stay within the modulus capacity. It folds ckks.NoiseModel's analytic
// error bounds over the program; no cryptography runs.
func (n *Network) EstimatePrecision(params ckks.Parameters, inputMax float64) (ckks.NoiseEstimate, bool) {
	p := n.prog
	model := ckks.NewNoiseModel(params)
	est := fold(p, model.Fresh(inputMax, params.MaxLevel()), func(c *instr, k int, x, y ckks.NoiseEstimate) ckks.NoiseEstimate {
		switch c.op {
		case opPCmult:
			return model.MulPlain(x, maxAbs(p.plain(c.arg)))
		case opPCadd:
			x.MaxVal += maxAbs(p.plain(c.arg))
			// The plaintext adds its own encoding error; no encryption
			// noise.
			x.Err += model.Fresh(0, x.Level).Err / 2
		case opCCadd:
			return model.Add(x, y)
		case opSquare:
			return model.Square(x)
		case opRescale:
			return model.Rescale(x)
		case opRotate, opRotateMany:
			// Hoisted rotations carry the same keyswitch bound as
			// chained ones.
			if k != 0 {
				return model.Rotate(x)
			}
		}
		return x
	})
	ok := true
	for _, seg := range p.layers {
		for _, v := range seg.outs {
			ok = ok && model.CapacityOK(est[v])
		}
	}
	return est[p.outputs()[0]], ok
}

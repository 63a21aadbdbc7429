package ckks

import (
	"fmt"

	"fxhenn/internal/modarith"
	"fxhenn/internal/ring"
)

// Evaluator executes homomorphic operations. It records nothing: the
// hecnn package counts the operations of its programs itself (its
// Recorder), and those per-layer HE-operation profiles (HOPs, KS counts)
// drive the accelerator's design space exploration.
type Evaluator struct {
	params Parameters
	rlk    *RelinearizationKey
	rtk    *RotationKeys
	// perms is the NTT-domain permutation of each Galois element rtk held
	// a key for at construction, shared read-only by every copy (WithRows).
	perms map[uint64][]int
	// rows, when not nil, supplies every output and temporary row and
	// takes back the temporaries (WithRows).
	rows *ring.Rows
}

// NewEvaluator creates an evaluator. rlk may be nil if CCmult is never used;
// rtk may be nil if Rotate is never used.
func NewEvaluator(params Parameters, rlk *RelinearizationKey, rtk *RotationKeys) *Evaluator {
	ev := &Evaluator{params: params, rlk: rlk, rtk: rtk}
	if rtk != nil {
		ev.perms = make(map[uint64][]int, len(rtk.Keys))
		for g := range rtk.Keys {
			ev.perms[g] = params.Ring().NTTAutomorphismIndex(g)
		}
	}
	return ev
}

// WithRows returns a shallow copy of ev whose operations take every
// output and temporary row from rows and give the temporaries back to it.
// The copy is as unsafe for concurrent use as rows is: one evaluation
// uses it, and Recycle gives back the values that evaluation is done
// with. ev itself, and its other copies, are unaffected.
func (ev *Evaluator) WithRows(rows *ring.Rows) *Evaluator {
	c := *ev
	c.rows = rows
	return &c
}

// Recycle gives the rows of ct, which nothing else may hold, back to the
// evaluator's list and leaves ct without rows. Without a list (WithRows)
// it does nothing.
func (ev *Evaluator) Recycle(ct *Ciphertext) {
	for _, p := range ct.Value {
		ev.rows.Recycle(p)
	}
}

// scratchPoly returns a k-row polynomial from the evaluator's list whose
// rows the caller overwrites whole before it reads them
// (ring.ScratchRowFrom).
func (ev *Evaluator) scratchPoly(k int) *ring.Poly {
	p := &ring.Poly{Coeffs: make([][]uint64, k)}
	for i := range p.Coeffs {
		p.Coeffs[i] = ev.params.Ring().ScratchRowFrom(ev.rows)
	}
	return p
}

// newCiphertext is an output ciphertext of scratchPoly parts, every row
// of which the operation overwrites.
func (ev *Evaluator) newCiphertext(parts, level int) *Ciphertext {
	ct := &Ciphertext{Value: make([]*ring.Poly, parts), Scale: ev.params.Scale}
	for i := range ct.Value {
		ct.Value[i] = ev.scratchPoly(level)
	}
	return ct
}

// copyPoly is p.Copy with rows from the evaluator's list.
func (ev *Evaluator) copyPoly(p *ring.Poly) *ring.Poly {
	out := ev.scratchPoly(p.K())
	p.CopyInto(out)
	return out
}

// copyCiphertext is ct.Copy with rows from the evaluator's list.
func (ev *Evaluator) copyCiphertext(ct *Ciphertext) *Ciphertext {
	out := &Ciphertext{Value: make([]*ring.Poly, len(ct.Value)), Scale: ct.Scale}
	for i, p := range ct.Value {
		out.Value[i] = ev.copyPoly(p)
	}
	return out
}

// permutation returns the NTT-domain permutation of Galois element g,
// computing it only for a key added to the rotation keys after
// NewEvaluator.
func (ev *Evaluator) permutation(g uint64) []int {
	if perm, ok := ev.perms[g]; ok {
		return perm
	}
	return ev.params.Ring().NTTAutomorphismIndex(g)
}

// alignLevels returns views of a and b truncated to their common level.
func alignLevels(a, b *Ciphertext) (*Ciphertext, *Ciphertext, int) {
	la, lb := a.Level(), b.Level()
	l := la
	if lb < l {
		l = lb
	}
	return ctView(a, l), ctView(b, l), l
}

func ctView(ct *Ciphertext, level int) *Ciphertext {
	out := &Ciphertext{Scale: ct.Scale}
	for _, p := range ct.Value {
		out.Value = append(out.Value, truncate(p, level))
	}
	return out
}

// AddNew returns a + b (CCadd). Operands are aligned to the lower level;
// scales must agree to within floating-point noise.
func (ev *Evaluator) AddNew(a, b *Ciphertext) *Ciphertext {
	out := ev.newCiphertext(len(a.Value), min(a.Level(), b.Level()))
	ev.Add(out, a, b)
	return out
}

// Add sets out = a + b (CCadd) at the operands' common level, with a's
// scale. out may be a or b; its rows above the common level are dropped,
// so it must have as many parts as a and at least that level. Scales must
// agree to within floating-point noise.
func (ev *Evaluator) Add(out, a, b *Ciphertext) {
	av, bv, level := alignLevels(a, b)
	checkScales(av.Scale, bv.Scale)
	if a.Degree() != b.Degree() || out.Degree() != a.Degree() {
		panic("ckks: CCadd degree mismatch")
	}
	dropTo(out, level)
	r := ev.params.Ring()
	for i := range out.Value {
		r.Add(out.Value[i], av.Value[i], bv.Value[i])
	}
	out.Scale = av.Scale
}

// dropTo truncates ct, written into as a destination, to level.
func dropTo(ct *Ciphertext, level int) {
	if ct.Level() < level {
		panic(fmt.Sprintf("ckks: destination level %d below the operands' %d", ct.Level(), level))
	}
	ct.DropLevel(ct.Level() - level)
}

// AddPlainNew returns ct + pt (PCadd). The plaintext must be at ct's level
// or higher and share its scale. pt is read-only (see the Plaintext reuse
// contract): it may be shared by concurrent AddPlainNew/MulPlainNew calls.
func (ev *Evaluator) AddPlainNew(ct *Ciphertext, pt *Plaintext) *Ciphertext {
	level := ct.Level()
	if pt.Level() < level {
		panic("ckks: PCadd plaintext level below ciphertext level")
	}
	checkNormalForm(pt, "PCadd")
	checkScales(ct.Scale, pt.Scale)
	out := ev.copyCiphertext(ct)
	addPlain(ev.params.Ring(), out.Value[0], pt)
	return out
}

// addPlain sets p += pt at p's level, for a normal-form pt at that level
// or higher. A constant adds its limb's word to every residue of the row.
func addPlain(r *ring.Ring, p *ring.Poly, pt *Plaintext) {
	if v := pt.Value; v != nil {
		if v.K() != p.K() {
			v = truncate(v, p.K())
		}
		r.Add(p, p, v)
		return
	}
	for j, row := range p.Coeffs {
		r.Mods[j].AddScalarVec(row, row, pt.Const[j])
	}
}

// MulPlainNew returns ct ⊙ pt (PCmult). Scales multiply; a Rescale is
// normally applied afterwards, as in the paper's NKS pipeline. pt may be
// in either form: a Montgomery-form operand multiplies by REDC, to the
// same bits, and a constant multiplies each row by its limb's word. pt is
// read-only (see the Plaintext reuse contract): it may be shared by
// concurrent AddPlainNew/MulPlainNew calls.
func (ev *Evaluator) MulPlainNew(ct *Ciphertext, pt *Plaintext) *Ciphertext {
	level := ct.Level()
	if pt.Level() < level {
		panic("ckks: PCmult plaintext level below ciphertext level")
	}
	r := ev.params.Ring()
	out := ev.newCiphertext(len(ct.Value), level)
	out.Scale = ct.Scale * pt.Scale
	if pt.Const != nil {
		for j := range level {
			m, w := r.Mods[j], pt.Const[j]
			if pt.IsMontgomery {
				w = m.MRed(w, 1) // back to normal form: w·2^64·2^-64
			}
			for i, p := range out.Value {
				m.ScalarMulVec(p.Coeffs[j], ct.Value[i].Coeffs[j], w)
			}
		}
	} else {
		ptv := truncate(pt.Value, level)
		for i := range out.Value {
			if pt.IsMontgomery {
				r.MulCoeffsMont(out.Value[i], ct.Value[i], ptv)
			} else {
				r.MulCoeffs(out.Value[i], ct.Value[i], ptv)
			}
		}
	}
	return out
}

// MulPlainSum sets acc += Σ_i cts[i] ⊙ pts[i]: the chain MulPlainNew,
// AddNew(acc, product), … pair by pair, as one multiply-accumulate per
// coefficient with no intermediate ciphertext — the HE-MAC of the
// accelerator's PCmult→CCadd stream, and bit-identical to those calls.
// Every pts[i] must be in Montgomery form (Encoder.MForm); rows and
// constants may mix in one chain. acc keeps its scale, which must agree
// with each cts[i].Scale·pts[i].Scale, and drops to the lowest level
// among acc and cts. cts[i] may be acc itself. The
// pts are read-only (see the Plaintext reuse contract).
//
// Rows run outside, on the ring's pool when RowPool gives one, and terms
// inside, as in keySwitch: each term deposits an unreduced REDC product in
// [0, 2q) (MulMontAddLazyVec, or MulMontScalarAddLazyVec for a constant),
// lazyMACGuard reduces before the accumulator could overflow, and one
// ReduceVec per row leaves it canonical (the lazy-reduction bounds
// contract, DESIGN.md §16). On the serial path it allocates nothing.
func (ev *Evaluator) MulPlainSum(acc *Ciphertext, cts []*Ciphertext, pts []*Plaintext) {
	if len(cts) != len(pts) {
		panic(fmt.Sprintf("ckks: MulPlainSum of %d ciphertexts and %d plaintexts", len(cts), len(pts)))
	}
	level := acc.Level()
	for i, ct := range cts {
		if pts[i].Level() < ct.Level() {
			panic("ckks: PCmult plaintext level below ciphertext level")
		}
		if !pts[i].IsMontgomery {
			panic("ckks: MulPlainSum: plaintext is in normal form; the chain takes Montgomery form (Encoder.MForm)")
		}
		if acc.Degree() != ct.Degree() {
			panic("ckks: CCadd degree mismatch")
		}
		checkScales(acc.Scale, ct.Scale*pts[i].Scale)
		level = min(level, ct.Level())
	}
	dropTo(acc, level)
	r := ev.params.Ring()
	if pool := r.RowPool(level); pool != nil {
		pool.Do(level, func(j int) { mulPlainSumRow(r.Mods[j], j, acc, cts, pts) })
	} else {
		for j := range level {
			mulPlainSumRow(r.Mods[j], j, acc, cts, pts)
		}
	}
}

// mulPlainSumRow accumulates MulPlainSum's terms into row j of every part
// of acc. The canonical accumulator counts as one lazy term.
func mulPlainSumRow(m modarith.Modulus, j int, acc *Ciphertext, cts []*Ciphertext, pts []*Plaintext) {
	maxLazy := m.MaxLazyAdds()
	for part, p := range acc.Value {
		row := p.Coeffs[j]
		terms := 1
		for i, ct := range cts {
			terms = lazyMACGuard(m, terms, maxLazy, row)
			if c := pts[i].Const; c != nil {
				m.MulMontScalarAddLazyVec(row, ct.Value[part].Coeffs[j], c[j])
			} else {
				m.MulMontAddLazyVec(row, ct.Value[part].Coeffs[j], pts[i].Value.Coeffs[j])
			}
		}
		m.ReduceVec(row, row)
	}
}

// MulNew returns a ⊗ b (CCmult) followed by relinearization when a
// relinearization key is available. Inputs must be degree-1.
func (ev *Evaluator) MulNew(a, b *Ciphertext) *Ciphertext {
	if a.Degree() != 1 || b.Degree() != 1 {
		panic("ckks: CCmult requires degree-1 operands")
	}
	av, bv, level := alignLevels(a, b)
	r := ev.params.Ring()
	out := ev.newCiphertext(3, level)
	out.Scale = av.Scale * bv.Scale
	d0, d1, d2 := out.Value[0], out.Value[1], out.Value[2]
	r.MulCoeffs(d0, av.Value[0], bv.Value[0])
	r.MulCoeffs(d1, av.Value[0], bv.Value[1])
	r.MulCoeffsAdd(d1, av.Value[1], bv.Value[0])
	r.MulCoeffs(d2, av.Value[1], bv.Value[1])
	if ev.rlk == nil {
		return out
	}
	relin := ev.RelinearizeNew(out)
	ev.Recycle(out)
	return relin
}

// RelinearizeNew switches the d2 term of a degree-2 ciphertext back to the
// canonical secret, returning a degree-1 ciphertext (a KeySwitch operation
// in the paper's taxonomy).
func (ev *Evaluator) RelinearizeNew(ct *Ciphertext) *Ciphertext {
	if ct.Degree() != 2 {
		panic("ckks: Relinearize requires a degree-2 ciphertext")
	}
	if ev.rlk == nil {
		panic("ckks: no relinearization key")
	}
	level := ct.Level()
	r := ev.params.Ring()
	d2 := ev.copyPoly(ct.Value[2])
	r.INTT(d2)
	u0, u1 := ev.keySwitch(level, &ev.rlk.SwitchingKey, digitSource{cc: d2})
	ev.rows.Recycle(d2)
	out := ev.newCiphertext(2, level)
	out.Scale = ct.Scale
	r.Add(out.Value[0], ct.Value[0], u0)
	r.Add(out.Value[1], ct.Value[1], u1)
	ev.rows.Recycle(u0)
	ev.rows.Recycle(u1)
	return out
}

// RescaleNew returns ct divided by its last prime (see Rescale).
func (ev *Evaluator) RescaleNew(ct *Ciphertext) *Ciphertext {
	out := ev.copyCiphertext(ct)
	ev.Rescale(out)
	return out
}

// Rescale divides ct in place by its last prime, dropping one level and
// dividing the scale accordingly (the Rescale HE operation, OP4). The
// dropped rows go back to the evaluator's list, if it has one, so ct must
// not share them.
func (ev *Evaluator) Rescale(ct *Ciphertext) {
	level := ct.Level()
	if level < 2 {
		panic("ckks: cannot rescale below level 1")
	}
	r := ev.params.Ring()
	for _, p := range ct.Value {
		last := p.Coeffs[level-1]
		p.DropLast(1)
		r.DivRoundByModulusNTT(p, last, level-1)
		ev.rows.RecycleRow(last)
	}
	ct.Scale /= float64(ev.params.Moduli[level-1])
}

// RotateNew rotates the slot vector left by k positions (a KeySwitch
// operation). A matching Galois key must have been generated.
func (ev *Evaluator) RotateNew(ct *Ciphertext, k int) *Ciphertext {
	if k == 0 {
		return ev.copyCiphertext(ct)
	}
	if ct.Degree() != 1 {
		panic("ckks: rotation requires a degree-1 ciphertext")
	}
	return ev.rotate(ct, k, nil)
}

// rotate is the tail every rotation shares: σ_g(ct) decrypts under σ_g(s),
// so its c1 part is keyswitched back to s and σ_g(c0) is added into the
// result. The keyswitch digits of σ_g(c1) are the permuted rows of hd when
// the caller hoisted the decomposition, and are expanded on the fly
// otherwise: σ_g is applied to c1 as an NTT-domain permutation, then
// transformed back once for the decomposition.
func (ev *Evaluator) rotate(ct *Ciphertext, k int, hd hoistedDecomposition) *Ciphertext {
	if ev.rtk == nil {
		panic("ckks: no rotation keys")
	}
	g := ev.params.GaloisElementForRotation(k)
	swk, ok := ev.rtk.Keys[g]
	if !ok {
		panic(fmt.Sprintf("ckks: missing Galois key for rotation %d (element %d)", k, g))
	}
	level := ct.Level()
	r := ev.params.Ring()
	perm := ev.permutation(g)
	src := digitSource{hoisted: hd, perm: perm}
	if hd == nil {
		src.cc = ev.scratchPoly(level)
		r.PermuteNTT(src.cc, ct.Value[1], perm)
		r.INTT(src.cc)
	}
	u0, u1 := ev.keySwitch(level, swk, src)
	if src.cc != nil {
		ev.rows.Recycle(src.cc)
	}
	r.PermuteNTTAdd(u0, ct.Value[0], perm)
	return &Ciphertext{Value: []*ring.Poly{u0, u1}, Scale: ct.Scale}
}

// digitSource yields the keyswitch digits of a polynomial as NTT-domain
// rows over the extended basis (q_0..q_{k-1}, p): expanded on the fly from
// the coefficient-domain cc, or permuted by perm from a hoisted
// decomposition.
type digitSource struct {
	cc      *ring.Poly
	hoisted hoistedDecomposition
	perm    []int
}

// row writes digit i for extended row j, ring row rj, into dst.
func (s digitSource) row(r *ring.Ring, dst []uint64, i, j, rj int) {
	if s.cc == nil {
		ring.PermuteVec(dst, s.hoisted[i][j], s.perm)
		return
	}
	expandDigit(r, dst, s.cc.Coeffs[i], i, rj)
}

// expandDigit writes digit i, the coefficient-domain residues d < q_i,
// reduced into ring row rj and transformed to the NTT domain, into dst.
func expandDigit(r *ring.Ring, dst, d []uint64, i, rj int) {
	if rj == i {
		copy(dst, d)
	} else {
		r.Mods[rj].ReduceVec(dst, d)
	}
	r.Tables[rj].Forward(dst)
}

// keySwitch computes the RNS-digit-decomposition keyswitch at level k of
// the polynomial whose digits src yields: it accumulates Σ_i d_i ⊗
// (B_i, A_i) over the extended basis (q_0..q_{k-1}, p) and divides by the
// special modulus p (ModDown), returning the NTT-domain result. This is
// the paper's bottleneck HE operation (OP5): per digit it costs one NTT
// per target modulus on top of the caller's INTT, which is where the
// L-times-slower KS pipeline stage of Fig. 3 comes from, and its ModDown
// is the Rescale division by p (ring.DivRoundByModulusNTT).
//
// The loop nest is target-row-outer so the k+1 extended-basis rows are
// independent work items: row j accumulates every digit's contribution
// into its own accumulators only, and digits run in ascending order inside
// each item, so the accumulation order — and therefore the result — is
// bit-exact with the serial digit-outer formulation. Each row picks its
// modulus, its key row and its accumulators; the special prime is ring row
// L, the key's last row, and accumulates into scratch rows that ModDown
// consumes. The switching-key rows are stored in Montgomery form, so the
// MACs run REDC with lazy accumulators: each digit deposits a value in
// [0, 2q) without reducing, and lazyMACGuard inserts a full reduction
// whenever the running term count would overflow a uint64 (the
// lazy-reduction bounds contract, DESIGN.md §16). The closing ReduceVec
// restores canonical residues, so results stay bit-identical to the eager
// Barrett formulation.
func (ev *Evaluator) keySwitch(k int, swk *SwitchingKey, src digitSource) (*ring.Poly, *ring.Poly) {
	swk.check(k)
	r := ev.params.Ring()
	sp := ev.params.L
	kp := swk.B[0].K() - 1 // the key's special-prime row is its last
	// Every row comes from the evaluator's list before the fan-out: the
	// outputs, the special-prime rows of u0 and u1 (uP), and one digit row
	// per work item, which src.row overwrites whole.
	u0, u1, uP := r.NewPolyFrom(ev.rows, k), r.NewPolyFrom(ev.rows, k), r.NewPolyFrom(ev.rows, 2)
	digits := ev.scratchPoly(k + 1)
	r.RowPool(k+1).Do(k+1, func(j int) {
		rj, kj, acc0, acc1 := sp, kp, uP.Coeffs[0], uP.Coeffs[1]
		if j < k {
			rj, kj, acc0, acc1 = j, j, u0.Coeffs[j], u1.Coeffs[j]
		}
		m := r.Mods[rj]
		maxLazy := m.MaxLazyAdds()
		digit := digits.Coeffs[j]
		terms := 0
		for i := range k {
			src.row(r, digit, i, j, rj)
			terms = lazyMACGuard(m, terms, maxLazy, acc0, acc1)
			m.MulMontAddLazyVec(acc0, digit, swk.B[i].Coeffs[kj])
			m.MulMontAddLazyVec(acc1, digit, swk.A[i].Coeffs[kj])
		}
		m.ReduceVec(acc0, acc0)
		m.ReduceVec(acc1, acc1)
	})
	r.DivRoundByModulusNTT(u0, uP.Coeffs[0], sp)
	r.DivRoundByModulusNTT(u1, uP.Coeffs[1], sp)
	ev.rows.Recycle(digits)
	ev.rows.Recycle(uP)
	return u0, u1
}

// lazyMACGuard accounts for one more lazy MAC into the accumulators:
// a reduced accumulator counts as one lazy term and every MulMontAddLazyVec
// or MulMontScalarAddLazyVec adds another, so when the next term would
// exceed maxLazy the accumulators are reduced down to a single term. With
// 30–50-bit production primes maxLazy is in the billions and the
// reduction never fires; it exists for the q-near-2^62 corner the
// modarith property tests, TestMulPlainSumLazyBound and
// TestMulPlainSumConstLazyBound pin.
func lazyMACGuard(m modarith.Modulus, terms, maxLazy int, accs ...[]uint64) int {
	if terms+1 > maxLazy {
		for _, acc := range accs {
			m.ReduceVec(acc, acc)
		}
		terms = 1
	}
	return terms + 1
}

// checkScales panics when two scales that must match diverge by more than a
// relative 2^-20 — a symptom of a mismanaged rescale chain in calling code.
func checkScales(a, b float64) {
	diff := a - b
	if diff < 0 {
		diff = -diff
	}
	if diff > a/(1<<20) {
		panic(fmt.Sprintf("ckks: scale mismatch %g vs %g", a, b))
	}
}

// Package ring implements arithmetic over the RNS-decomposed polynomial ring
// R_Q = Z_Q[X]/(X^N+1) used by RNS-CKKS (§II-A). A polynomial is stored as L
// residue polynomials ("RNS polynomials" poly_{q_i} in the paper's notation),
// one per prime factor q_i of Q, each of which is what the accelerator's
// basic operation modules (NTT/INTT, ModAdd, ModMult, ...) stream. The RNS
// residues are exactly the CRT decomposition of Eq. 1, a ⊙ b ≡ (a_i ⊙ b_i
// mod q_i)_i, which is what makes every Ring operation independent per limb.
//
// Parallelism contract: a Ring is immutable after construction except for
// AttachPool, and every method is safe to call concurrently on distinct
// polynomials. When a parallel.Pool is attached, row-parallel operations
// (NTT, INTT, the pointwise vector ops, the centered divisions, Automorphism,
// PermuteNTT) dispatch one work item per RNS limb once the work exceeds the
// serial cutoffs below; each limb is computed by exactly the same scalar
// code as the serial path, so parallel and serial execution are bit-exact.
// Operations on the *same* Poly must still be externally serialized — the
// pool parallelizes within one operation, not across operations.
package ring

import (
	"fmt"
	"math/big"
	"math/bits"
	"sync/atomic"

	"fxhenn/internal/modarith"
	"fxhenn/internal/ntt"
	"fxhenn/internal/parallel"
)

// Serial cutoffs for limb-parallel dispatch: a transform costs O(N log N)
// per limb and is worth a pool item from modest degrees; pointwise ops are
// O(N) per limb and need more total coefficients before the handoff pays.
const (
	// minParallelN is the smallest ring degree for which per-limb NTT/INTT
	// (and the rescale/automorphism row loops) fan out to the pool.
	minParallelN = 512
	// minParallelCoeffs is the smallest total coefficient count (rows × N)
	// for which pointwise vector ops fan out to the pool.
	minParallelCoeffs = 1 << 14
)

// Ring bundles the transform tables and modular contexts for a fixed
// polynomial degree N and a fixed maximal RNS basis q_0, ..., q_{k-1}.
// Working polynomials may use any prefix of the basis (their "level").
type Ring struct {
	N      int
	Moduli []uint64
	Mods   []modarith.Modulus
	Tables []*ntt.Table

	// rescaleInv[k][j] = q_{k-1}^{-1} mod q_j for j < k-1, used by the
	// centered division of Rescale and ModDown (divRoundRow).
	rescaleInv [][]modarith.MulConst
	// halfLast[k] = floor(q_{k-1} / 2), the centering threshold.
	halfLast []uint64
	// lastModRed[k][j] = q_{k-1} mod q_j.
	lastModRed [][]uint64

	// pool, when non-nil, parallelizes row loops across RNS limbs. Held
	// through an atomic pointer so AttachPool may race with evaluation.
	pool atomic.Pointer[parallel.Pool]
}

// AttachPool makes subsequent row loops dispatch per-limb work items to p.
// A nil p detaches the pool (all operations run serially). Safe to call
// concurrently with evaluation; in-flight operations keep the pool they
// started with.
func (r *Ring) AttachPool(p *parallel.Pool) {
	if p == nil || p.Workers() <= 1 {
		r.pool.Store(nil)
		return
	}
	r.pool.Store(p)
}

// Pool returns the currently attached worker pool, or nil.
func (r *Ring) Pool() *parallel.Pool { return r.pool.Load() }

// do runs fn(i) for i in [0,n), fanning out to the attached pool when there
// are at least two rows and the per-operation work clears minCoeffs total
// coefficients. Rows always execute with the same scalar code as the serial
// path, so the result is bit-exact either way.
func (r *Ring) do(n, minCoeffs int, fn func(i int)) {
	if n >= 2 && n*r.N >= minCoeffs {
		if p := r.pool.Load(); p != nil {
			p.Do(n, fn)
			return
		}
	}
	for i := 0; i < n; i++ {
		fn(i)
	}
}

// NewRing constructs a ring of degree n over the given NTT-friendly prime
// moduli. n must be a power of two ≥ 2 and every modulus must satisfy
// q ≡ 1 (mod 2n); violations panic inside the NTT table construction.
func NewRing(n int, moduli []uint64) *Ring {
	if len(moduli) == 0 {
		panic("ring: empty modulus chain")
	}
	seen := map[uint64]bool{}
	r := &Ring{N: n, Moduli: append([]uint64(nil), moduli...)}
	for _, q := range moduli {
		if seen[q] {
			panic(fmt.Sprintf("ring: duplicate modulus %d", q))
		}
		seen[q] = true
		r.Mods = append(r.Mods, modarith.NewModulus(q))
		r.Tables = append(r.Tables, ntt.NewTable(n, q))
	}
	k := len(moduli)
	r.rescaleInv = make([][]modarith.MulConst, k+1)
	r.lastModRed = make([][]uint64, k+1)
	r.halfLast = make([]uint64, k+1)
	for lvl := 2; lvl <= k; lvl++ {
		last := moduli[lvl-1]
		r.halfLast[lvl] = last >> 1
		invs := make([]modarith.MulConst, lvl-1)
		reds := make([]uint64, lvl-1)
		for j := 0; j < lvl-1; j++ {
			invs[j] = modarith.NewMulConst(r.Mods[j], r.Mods[j].Inv(r.Mods[j].Reduce(last)))
			reds[j] = r.Mods[j].Reduce(last)
		}
		r.rescaleInv[lvl] = invs
		r.lastModRed[lvl] = reds
	}
	return r
}

// MaxLevel returns the number of moduli in the full basis.
func (r *Ring) MaxLevel() int { return len(r.Moduli) }

// Poly is an RNS polynomial: Coeffs[i][j] is coefficient j modulo q_i.
// The number of residue rows is the polynomial's level count; whether the
// rows are in coefficient or NTT domain is tracked by the caller (the ckks
// package), not here.
type Poly struct {
	Coeffs [][]uint64
}

// NewPoly allocates a zero polynomial with k residue rows.
func (r *Ring) NewPoly(k int) *Poly { return r.NewPolyFrom(nil, k) }

// NewPolyFrom returns a zero polynomial with k residue rows taken from
// rows (see Rows), allocating those rows cannot supply; with rows nil it
// is NewPoly.
func (r *Ring) NewPolyFrom(rows *Rows, k int) *Poly {
	if k < 1 || k > len(r.Moduli) {
		panic(fmt.Sprintf("ring: level count %d out of range [1,%d]", k, len(r.Moduli)))
	}
	c := make([][]uint64, k)
	for i := range c {
		if c[i] = rows.pop(r.N); c[i] != nil {
			clear(c[i])
		} else {
			c[i] = make([]uint64, r.N)
		}
	}
	return &Poly{Coeffs: c}
}

// K returns the number of residue rows (active RNS components).
func (p *Poly) K() int { return len(p.Coeffs) }

// Copy returns a deep copy of p.
func (p *Poly) Copy() *Poly {
	c := make([][]uint64, len(p.Coeffs))
	for i := range c {
		c[i] = append([]uint64(nil), p.Coeffs[i]...)
	}
	return &Poly{Coeffs: c}
}

// CopyInto copies p's rows into out, which must have the same shape.
func (p *Poly) CopyInto(out *Poly) {
	if out.K() != p.K() {
		panic("ring: CopyInto level mismatch")
	}
	for i := range p.Coeffs {
		copy(out.Coeffs[i], p.Coeffs[i])
	}
}

// DropLast removes the last n residue rows in place.
func (p *Poly) DropLast(n int) {
	if n >= p.K() {
		panic("ring: cannot drop all residue rows")
	}
	p.Coeffs = p.Coeffs[:p.K()-n]
}

func (r *Ring) checkSameK(ps ...*Poly) int {
	k := ps[0].K()
	for _, p := range ps {
		if p.K() != k {
			panic("ring: operand level mismatch")
		}
		if len(p.Coeffs[0]) != r.N {
			panic("ring: operand degree mismatch")
		}
	}
	return k
}

// Add computes out = a + b componentwise (same levels required).
func (r *Ring) Add(out, a, b *Poly) {
	k := r.checkSameK(out, a, b)
	r.do(k, minParallelCoeffs, func(i int) {
		r.Mods[i].AddVec(out.Coeffs[i], a.Coeffs[i], b.Coeffs[i])
	})
}

// Neg computes out = -a.
func (r *Ring) Neg(out, a *Poly) {
	k := r.checkSameK(out, a)
	r.do(k, minParallelCoeffs, func(i int) {
		r.Mods[i].NegVec(out.Coeffs[i], a.Coeffs[i])
	})
}

// MulCoeffs computes out = a ⊙ b, the pointwise product. In the NTT domain
// this is negacyclic polynomial multiplication.
func (r *Ring) MulCoeffs(out, a, b *Poly) {
	k := r.checkSameK(out, a, b)
	r.do(k, minParallelCoeffs, func(i int) {
		r.Mods[i].MulVec(out.Coeffs[i], a.Coeffs[i], b.Coeffs[i])
	})
}

// MulCoeffsAdd computes out += a ⊙ b, both operands in normal form. The
// HE-MAC of PCmult chains is ckks.Evaluator.MulPlainSum.
func (r *Ring) MulCoeffsAdd(out, a, b *Poly) {
	k := r.checkSameK(out, a, b)
	r.do(k, minParallelCoeffs, func(i int) {
		r.Mods[i].MulAddVec(out.Coeffs[i], a.Coeffs[i], b.Coeffs[i])
	})
}

// MulCoeffsMont computes out = a ⊙ b with b in Montgomery form (see
// MForm): bit-identical to MulCoeffs of b's normal form, with REDC in
// place of Barrett.
func (r *Ring) MulCoeffsMont(out, a, bMont *Poly) {
	k := r.checkSameK(out, a, bMont)
	r.do(k, minParallelCoeffs, func(i int) {
		r.Mods[i].MulMontVec(out.Coeffs[i], a.Coeffs[i], bMont.Coeffs[i])
	})
}

// RowPool returns the attached pool when a pointwise operation over rows
// residue rows would fan out to it, and nil when it would run serially:
// the dispatch rule of the pointwise ops, for callers that run their own
// row loops.
func (r *Ring) RowPool(rows int) *parallel.Pool {
	if rows >= 2 && rows*r.N >= minParallelCoeffs {
		return r.pool.Load()
	}
	return nil
}

// MulScalar computes out = s * a for a word scalar s.
func (r *Ring) MulScalar(out, a *Poly, s uint64) {
	k := r.checkSameK(out, a)
	r.do(k, minParallelCoeffs, func(i int) {
		r.Mods[i].ScalarMulVec(out.Coeffs[i], a.Coeffs[i], r.Mods[i].Reduce(s))
	})
}

// NTT transforms every residue row of p to the evaluation domain in place.
// Rows are independent (one transform per RNS limb), so with a pool attached
// each limb is a separate work item.
func (r *Ring) NTT(p *Poly) {
	r.do(p.K(), 2*minParallelN, func(i int) {
		r.Tables[i].Forward(p.Coeffs[i])
	})
}

// INTT transforms every residue row of p back to coefficient domain in place.
func (r *Ring) INTT(p *Poly) {
	r.do(p.K(), 2*minParallelN, func(i int) {
		r.Tables[i].Inverse(p.Coeffs[i])
	})
}

// DivRoundByLastModulus implements the RNS Rescale basic step: it divides the
// coefficient-domain polynomial by its last modulus q_{k-1} with centered
// rounding and drops that residue row.
func (r *Ring) DivRoundByLastModulus(p *Poly) {
	k := p.K()
	if k < 2 {
		panic("ring: cannot rescale a level-1 polynomial")
	}
	last := p.Coeffs[k-1]
	p.DropLast(1)
	// Rows j < k-1 only read the shared last row and write their own row, so
	// they are independent work items.
	r.do(k-1, 2*minParallelN, func(j int) {
		r.divRoundRow(p.Coeffs[j], last, j, k-1)
	})
}

// DivRoundByModulusNTT divides the NTT-domain polynomial p by the modulus
// q_m with centered rounding, where last holds the residues mod q_m of the
// same value (NTT domain) and p's rows are q_0..q_{K-1}, all below m. The
// result is left in p, NTT domain; last is left in the coefficient domain.
// With m = K it is the Rescale step (Evaluator.Rescale passes the dropped
// row); with m the special prime's index it is the ModDown that ends a
// KeySwitch.
func (r *Ring) DivRoundByModulusNTT(p *Poly, last []uint64, m int) {
	k := p.K()
	if k > m {
		panic(fmt.Sprintf("ring: dividing %d rows by modulus %d", k, m))
	}
	// Every row divides by the shared coefficient-domain last row, so all
	// k+1 inverse transforms run as one fan-out before the divisions.
	r.do(k+1, 2*minParallelN, func(j int) {
		if j == k {
			r.Tables[m].Inverse(last)
		} else {
			r.Tables[j].Inverse(p.Coeffs[j])
		}
	})
	r.do(k, 2*minParallelN, func(j int) {
		r.divRoundRow(p.Coeffs[j], last, j, m)
		r.Tables[j].Forward(p.Coeffs[j])
	})
}

// divRoundRow folds the centered residues mod q_m in last out of row j of
// a coefficient-domain polynomial: row = (row - centered(last)) / q_m mod
// q_j, with j < m. The constants are the level-(m+1) rescale tables, which
// cover every modulus of the ring, the special prime included.
func (r *Ring) divRoundRow(row, last []uint64, j, m int) {
	mj := r.Mods[j]
	inv := r.rescaleInv[m+1][j]
	qlRed := r.lastModRed[m+1][j]
	half := r.halfLast[m+1]
	// The row loop is the Rescale hot path; unrolled over array pointers
	// like the modarith kernels so the per-coefficient work (one Barrett
	// reduce, one Shoup multiply) runs without bounds checks.
	nn := r.N &^ 3
	for n := 0; n < nn; n += 4 {
		l := (*[4]uint64)(last[n:])
		z := (*[4]uint64)(row[n:])
		z[0] = rescaleCoeff(mj, inv, z[0], l[0], half, qlRed)
		z[1] = rescaleCoeff(mj, inv, z[1], l[1], half, qlRed)
		z[2] = rescaleCoeff(mj, inv, z[2], l[2], half, qlRed)
		z[3] = rescaleCoeff(mj, inv, z[3], l[3], half, qlRed)
	}
	for n := nn; n < r.N; n++ {
		row[n] = rescaleCoeff(mj, inv, row[n], last[n], half, qlRed)
	}
}

// rescaleCoeff lifts the last-modulus residue lastC into Z_{q_j} with
// centered rounding and folds it out of c: (c - centered(lastC)) / q_last.
func rescaleCoeff(mj modarith.Modulus, inv modarith.MulConst, c, lastC, half, qlRed uint64) uint64 {
	rep := mj.Reduce(lastC)
	if lastC > half {
		// The centered representative is lastC - q_last; its residue
		// mod q_j is rep - q_last mod q_j.
		rep = mj.Sub(rep, qlRed)
	}
	return inv.Mul(mj.Sub(c, rep), mj)
}

// MForm converts every residue of a into Montgomery form, writing into out
// (out == a is allowed). Used to pre-convert switching keys so the keyswitch
// MACs can run REDC instead of Barrett.
func (r *Ring) MForm(out, a *Poly) {
	k := r.checkSameK(out, a)
	r.do(k, minParallelCoeffs, func(i int) {
		r.Mods[i].MFormVec(out.Coeffs[i], a.Coeffs[i])
	})
}

// Automorphism applies the Galois map X -> X^g to the coefficient-domain
// polynomial a, writing into out (distinct from a). g must be odd so the map
// is an automorphism of Z[X]/(X^N+1).
func (r *Ring) Automorphism(out, a *Poly, g uint64) {
	if out == a {
		panic("ring: Automorphism requires out != a")
	}
	k := r.checkSameK(out, a)
	if g%2 == 0 {
		panic("ring: automorphism exponent must be odd")
	}
	n := uint64(r.N)
	mask := 2*n - 1
	r.do(k, 2*minParallelN, func(i int) {
		m := r.Mods[i]
		src := a.Coeffs[i]
		dst := out.Coeffs[i]
		idx := uint64(0)
		for j := uint64(0); j < n; j++ {
			// X^j -> X^(j*g mod 2N); exponents ≥ N wrap with a sign flip
			// because X^N = -1.
			if idx < n {
				dst[idx] = src[j]
			} else {
				dst[idx-n] = m.Neg(src[j])
			}
			idx = (idx + g) & mask
		}
	})
}

// CRT reconstructs coefficients of level-k polynomials from their
// residues. It holds the constants of the reconstruction — Q_k, ⌊Q_k/2⌋,
// and per prime q̂_i = Q_k/q_i and [q̂_i^{-1}]_{q_i} — built once by
// NewCRT, and the temporaries every ComposeCoeff reuses. Decoding
// composes every coefficient of a polynomial through one CRT; a CRT per
// coefficient is the big-integer reference for tests. It is not safe for
// concurrent use.
type CRT struct {
	moduli []uint64
	q      *big.Int
	half   *big.Int
	qhat   []*big.Int
	inv    []uint64
	u, t   *big.Int
}

// NewCRT builds the reconstruction constants of r's first k primes.
func (r *Ring) NewCRT(k int) *CRT {
	c := &CRT{moduli: r.Moduli[:k], q: r.ModulusAtLevel(k), u: new(big.Int), t: new(big.Int)}
	c.half = new(big.Int).Rsh(c.q, 1)
	for _, m := range c.moduli {
		qi := new(big.Int).SetUint64(m)
		qhat := new(big.Int).Div(c.q, qi)
		c.qhat = append(c.qhat, qhat)
		c.inv = append(c.inv, new(big.Int).ModInverse(new(big.Int).Mod(qhat, qi), qi).Uint64())
	}
	return c
}

// ComposeCoeff sets x to coefficient j of the coefficient-domain poly p,
// a level-k polynomial, as a centered integer in (-Q_k/2, Q_k/2], and
// returns x:
//
//	x = Σ_i [c_i·q̂_i^{-1}]_{q_i}·q̂_i mod Q_k, minus Q_k above Q_k/2.
func (c *CRT) ComposeCoeff(x *big.Int, p *Poly, j int) *big.Int {
	if p.K() != len(c.moduli) {
		panic(fmt.Sprintf("ring: CRT of level %d composing a level-%d poly", len(c.moduli), p.K()))
	}
	x.SetUint64(0)
	for i, qi := range c.moduli {
		hi, lo := bits.Mul64(p.Coeffs[i][j], c.inv[i])
		_, ri := bits.Div64(hi%qi, lo, qi)
		x.Add(x, c.t.Mul(c.u.SetUint64(ri), c.qhat[i]))
	}
	// Each term is below Q_k, so the sum is below k·Q_k.
	for x.Cmp(c.q) >= 0 {
		x.Sub(x, c.q)
	}
	if x.Cmp(c.half) > 0 {
		x.Sub(x, c.q)
	}
	return x
}

// SetCoeffBig sets coefficient j of p to the residues of the (possibly
// negative) big integer v.
func (r *Ring) SetCoeffBig(p *Poly, j int, v *big.Int) {
	tmp := new(big.Int)
	for i := 0; i < p.K(); i++ {
		qi := new(big.Int).SetUint64(r.Moduli[i])
		tmp.Mod(v, qi)
		if tmp.Sign() < 0 {
			tmp.Add(tmp, qi)
		}
		p.Coeffs[i][j] = tmp.Uint64()
	}
}

// ModulusAtLevel returns Q_k = q_0 * ... * q_{k-1} as a big integer.
func (r *Ring) ModulusAtLevel(k int) *big.Int {
	q := big.NewInt(1)
	for i := 0; i < k; i++ {
		q.Mul(q, new(big.Int).SetUint64(r.Moduli[i]))
	}
	return q
}

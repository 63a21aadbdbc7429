package hecnn

import (
	"fmt"
	"math"
)

// MatVecDiag computes y = Wx + bias from a Contiguous input using the
// baby-step/giant-step diagonal method (Halevi-Shoup linear transforms, the
// FAME/lattigo shape): the S×S zero-padded matrix is decomposed into its
// cyclic diagonals u_d[i] = W[i, (i+d) mod S], so
//
//	y = Σ_g rot( Σ_b u'_{g,b} ⊙ rot(x, b), t_g ),   d = t_g + b,
//
// where the inner ("baby") rotations b ∈ [0, n1) all reuse ONE hoisted
// keyswitch decomposition (Backend.RotateMany) and only the n2 = ⌈D/n1⌉
// outer ("giant") rotations t_g pay a full keyswitch. The pre-rotated
// diagonal u'_{g,b}[j] = W[(j−t_g) mod S, (j+b) mod S] folds the giant
// rotation into the plaintext, which is what lets the inner sums rescale
// once before the giant rotation runs at the cheaper lower level.
//
// Compared to the rotate-and-sum ladder (MatVecGroup + MatVecCollect) this
// turns O(rows·log cols) keyswitches into O(√D) for dense layers, consumes
// the same single level (PCmult at ℓ, Rescale to ℓ−1, giant rotations at
// ℓ−1), and maps Contiguous → Contiguous (zeros above Rows), so diag layers
// chain without the GroupSums layout. Identically-zero diagonals are skipped
// at compile time — for convolutions lowered to their sparse matrix, only
// the ~inC·K² populated diagonals generate PCmults and rotations.
//
// Geometry constraint: Rows+Cols−1 ≤ Slots, otherwise the cyclic diagonals
// of the padded matrix alias and the compiler must keep the ladder.
type MatVecDiag struct {
	LayerName  string
	Rows, Cols int
	Weight     func(r, c int) float64
	Bias       func(r int) float64
	Slots      int

	n1       int         // baby-step window
	groups   []bsgsGroup // nonempty giant-step groups, ascending g
	babyRots []int       // sorted distinct nonzero baby offsets
	nonzero  int         // nonzero diagonal count (PCmults per inference)
}

// bsgsGroup is one giant step: the rotation amount applied after the inner
// sum, and the baby offsets whose diagonals are not identically zero.
type bsgsGroup struct {
	t      int
	babies []int
}

// Relative per-op costs used by the BSGS plan search and the ladder
// fallback comparison, in units of one full rotation. They were fitted to
// the pre-Montgomery kernels (Rotate ≈ 70 ms, Rescale ≈ 14 ms). At
// PERFORMANCE.md §1's current figures — Rotate 24.0 ms, 15.5 ms per
// rotation in a 4-rotation hoisted batch, Rescale 8.2 ms — the ratios are
// ≈ 0.65 and ≈ 0.34. The constants stay: changing them changes the chosen
// plans and with them the Galois key set.
const (
	babyRotCost = 0.5
	rescaleCost = 0.2
)

// NewMatVecDiag scans W's diagonals, picks the baby-step window n1 that
// minimizes estimated rotation cost, and returns the compiled layer. It
// panics when Rows+Cols−1 > Slots (the caller should have kept the ladder).
func NewMatVecDiag(name string, rows, cols, slots int, weight func(r, c int) float64, bias func(r int) float64) *MatVecDiag {
	d := rows + cols - 1
	if d > slots {
		panic(fmt.Sprintf("hecnn: diag matvec %q: %d diagonals exceed %d slots", name, d, slots))
	}
	l := &MatVecDiag{
		LayerName: name, Rows: rows, Cols: cols,
		Weight: weight, Bias: bias, Slots: slots,
	}

	// Mark the diagonals that carry at least one nonzero weight. Index
	// idx = (c−r) + (rows−1) ∈ [0, D).
	base := -(rows - 1)
	nz := make([]bool, d)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if weight(r, c) != 0 {
				nz[c-r-base] = true
			}
		}
	}
	for _, b := range nz {
		if b {
			l.nonzero++
		}
	}
	if l.nonzero == 0 {
		// Degenerate all-zero matrix: a single empty plan; Apply emits
		// just the bias.
		l.n1 = 1
		return l
	}

	l.n1 = bestBabyWindow(nz, base)

	// Build the group plan for the chosen window.
	n1 := l.n1
	groupBabies := map[int][]int{}
	maxG := 0
	for idx, set := range nz {
		if !set {
			continue
		}
		g, b := idx/n1, idx%n1
		groupBabies[g] = append(groupBabies[g], b)
		if g > maxG {
			maxG = g
		}
	}
	babySeen := map[int]bool{}
	for g := 0; g <= maxG; g++ {
		babies, ok := groupBabies[g]
		if !ok {
			continue
		}
		l.groups = append(l.groups, bsgsGroup{t: base + g*n1, babies: babies})
		for _, b := range babies {
			if b != 0 {
				babySeen[b] = true
			}
		}
	}
	for b := 1; b < n1; b++ {
		if babySeen[b] {
			l.babyRots = append(l.babyRots, b)
		}
	}
	return l
}

// bestBabyWindow searches the baby window n1 minimizing the rotation cost
// of the nonzero diagonal set: hoisted baby rotations at babyRotCost each,
// one full rotation per nonzero group with t ≠ 0, one rescale per group.
func bestBabyWindow(nz []bool, base int) int {
	d := len(nz)
	limit := 4*int(math.Sqrt(float64(d))) + 1
	if limit > d {
		limit = d
	}
	best, bestCost := 1, math.Inf(1)
	candidates := make([]int, 0, limit+1)
	for n1 := 1; n1 <= limit; n1++ {
		candidates = append(candidates, n1)
	}
	if limit < d {
		candidates = append(candidates, d) // single-group plan
	}
	for _, n1 := range candidates {
		if cost := planCost(nz, base, n1); cost < bestCost {
			best, bestCost = n1, cost
		}
	}
	return best
}

// planCost evaluates the rotation cost of window n1 over the nonzero
// diagonal set.
func planCost(nz []bool, base, n1 int) float64 {
	babies := make(map[int]bool)
	giants := make(map[int]bool)
	for idx, set := range nz {
		if !set {
			continue
		}
		babies[idx%n1] = true
		giants[idx/n1] = true
	}
	nBaby := len(babies)
	if babies[0] {
		nBaby-- // rotation by zero is free
	}
	nGiant := 0
	for g := range giants {
		if base+g*n1 != 0 {
			nGiant++
		}
	}
	return babyRotCost*float64(nBaby) + float64(nGiant) + rescaleCost*float64(len(giants))
}

// EstimatedCost returns the layer's rotation-equivalent cost under the
// compiled plan — what CompileWith compares against the ladder.
func (l *MatVecDiag) EstimatedCost() float64 {
	nGiant := 0
	for _, g := range l.groups {
		if g.t != 0 {
			nGiant++
		}
	}
	return babyRotCost*float64(len(l.babyRots)) + float64(nGiant) + rescaleCost*float64(len(l.groups))
}

// ladderGroupCost estimates the rotation-equivalent cost of the MatVecGroup
// ladder for the same geometry (replication chain + per-group fold).
func ladderGroupCost(rows, cols, slots int) float64 {
	p2 := nextPow2(cols)
	bb := slots / p2
	if rp := nextPow2(rows); rp < bb {
		bb = rp
	}
	g := (rows + bb - 1) / bb
	return float64(log2i(bb)) + float64(g)*(float64(log2i(p2))+rescaleCost)
}

func log2i(n int) int {
	l := 0
	for 1<<uint(l) < n {
		l++
	}
	return l
}

// Name implements Layer.
func (l *MatVecDiag) Name() string { return l.LayerName }

// Kind implements Layer.
func (l *MatVecDiag) Kind() LayerKind { return KS }

// OutElems implements Layer.
func (l *MatVecDiag) OutElems() int { return l.Rows }

// diagonal builds the pre-rotated diagonal plaintext u'_{g,b}: entry
// j = (r + t) mod S carries W[r, r+d] for d = t+b, zero elsewhere. Garbage
// in input slots ≥ Cols is masked because columns outside [0, Cols) never
// appear.
func (l *MatVecDiag) diagonal(t, b int) []float64 {
	s := l.Slots
	d := t + b
	v := make([]float64, s)
	for r := 0; r < l.Rows; r++ {
		c := r + d
		if c < 0 || c >= l.Cols {
			continue
		}
		v[((r+t)%s+s)%s] = l.Weight(r, c)
	}
	return v
}

// Apply implements Layer.
func (l *MatVecDiag) Apply(b Backend, in *State) *State {
	if in.Kind != Contiguous || len(in.CTs) != 1 {
		panic(fmt.Sprintf("hecnn: diag matvec %q requires a single contiguous input", l.LayerName))
	}
	if in.N != l.Cols {
		panic(fmt.Sprintf("hecnn: diag matvec %q expects %d inputs, got %d", l.LayerName, l.Cols, in.N))
	}
	b.SetLayer(l.LayerName)

	// Baby steps: every nonzero offset of x from one shared hoisted
	// decomposition.
	x := in.CTs[0]
	rots := map[int]*CT{0: x}
	if len(l.babyRots) > 0 {
		for i, t := range b.RotateMany(x, l.babyRots) {
			rots[l.babyRots[i]] = t
		}
	}

	// Giant steps: mask-accumulate each group's diagonals, rescale the
	// inner sum once, rotate at the lower level, and fold into the output.
	var out *CT
	for _, g := range l.groups {
		var acc *CT
		for _, bb := range g.babies {
			t, bb := g.t, bb
			w := Plain{Make: func() []float64 { return l.diagonal(t, bb) }}
			p := b.PCmult(rots[bb], w)
			acc = accumulate(b, acc, p)
		}
		acc = b.Rescale(acc)
		if g.t != 0 {
			acc = b.Rotate(acc, g.t)
		}
		out = accumulate(b, out, acc)
	}

	bias := Plain{Make: func() []float64 {
		v := make([]float64, l.Slots)
		for r := 0; r < l.Rows; r++ {
			v[r] = l.Bias(r)
		}
		return v
	}}
	if out == nil {
		// All-zero matrix: y is just the bias, delivered at the same
		// level/scale schedule as the generic path (burn one rescale).
		out = b.Rescale(b.PCmult(x, Plain{Make: func() []float64 {
			return make([]float64, l.Slots)
		}}))
	}
	out = b.PCadd(out, bias)
	return &State{CTs: []*CT{out}, Kind: Contiguous, N: l.Rows}
}

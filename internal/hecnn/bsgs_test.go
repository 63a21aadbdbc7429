package hecnn

import (
	"math"
	"math/rand"
	"testing"

	"fxhenn/internal/ckks"
)

// denseWeight returns a deterministic fully-populated weight function.
func denseWeight(seed int64) func(r, c int) float64 {
	rng := rand.New(rand.NewSource(seed))
	cache := map[[2]int]float64{}
	return func(r, c int) float64 {
		k := [2]int{r, c}
		if v, ok := cache[k]; ok {
			return v
		}
		v := rng.Float64() - 0.5
		cache[k] = v
		return v
	}
}

// TestMatVecDiagPlan pins the compile-time BSGS plan of a dense matrix:
// every diagonal appears in exactly one group with d = t + b, baby
// offsets stay inside the window, and the counted trace matches
// the plan (PCmult per nonzero diagonal, one rescale per group, one
// rotation per nonzero baby offset and per nonzero giant step).
func TestMatVecDiagPlan(t *testing.T) {
	const rows, cols, slots = 4, 8, 16
	w := denseWeight(1)
	l := NewMatVecDiag("fc", rows, cols, slots, w, func(r int) float64 { return 0 })

	d := rows + cols - 1
	if l.nonzero != d {
		t.Fatalf("dense matrix: %d nonzero diagonals, want %d", l.nonzero, d)
	}
	seen := map[int]bool{}
	for _, g := range l.groups {
		for _, b := range g.babies {
			if b < 0 || b >= l.n1 {
				t.Fatalf("baby offset %d outside window [0,%d)", b, l.n1)
			}
			diag := g.t + b
			if diag < -(rows-1) || diag > cols-1 {
				t.Fatalf("diagonal %d outside [%d,%d]", diag, -(rows - 1), cols-1)
			}
			if seen[diag] {
				t.Fatalf("diagonal %d planned twice", diag)
			}
			seen[diag] = true
		}
	}
	if len(seen) != d {
		t.Fatalf("plan covers %d diagonals, want %d", len(seen), d)
	}
	for _, b := range l.babyRots {
		if b < 1 || b >= l.n1 {
			t.Fatalf("hoisted baby rotation %d outside [1,%d)", b, l.n1)
		}
	}

	rec, out, outLevel := countLayer(l, &State{CTs: make([]*CT, 1), Kind: Contiguous, N: cols}, 7)
	if out.Kind != Contiguous || out.N != rows || len(out.CTs) != 1 {
		t.Fatalf("output state = %+v, want single contiguous of %d", out, rows)
	}
	le := rec.Layer("fc")
	if got := le.Count(ckks.OpPCmult); got != l.nonzero {
		t.Errorf("PCmults = %d, want one per nonzero diagonal (%d)", got, l.nonzero)
	}
	if got := le.Count(ckks.OpRescale); got != len(l.groups) {
		t.Errorf("rescales = %d, want one per group (%d)", got, len(l.groups))
	}
	nGiant := 0
	for _, g := range l.groups {
		if g.t != 0 {
			nGiant++
		}
	}
	if got := le.Count(ckks.OpRotate); got != len(l.babyRots)+nGiant {
		t.Errorf("rotations = %d, want %d baby + %d giant", got, len(l.babyRots), nGiant)
	}
	if outLevel != 6 {
		t.Errorf("output level = %d, want exactly one level consumed", outLevel)
	}

	// The plan search should beat the ladder on this dense geometry, and
	// EstimatedCost must agree with what the trace paid.
	wantCost := babyRotCost*float64(len(l.babyRots)) + float64(nGiant) + rescaleCost*float64(len(l.groups))
	if got := l.EstimatedCost(); got != wantCost {
		t.Errorf("EstimatedCost = %g, want %g", got, wantCost)
	}
	if l.EstimatedCost() >= ladderGroupCost(rows, cols, slots) {
		t.Errorf("BSGS cost %g not below ladder cost %g on a dense matrix",
			l.EstimatedCost(), ladderGroupCost(rows, cols, slots))
	}
}

// TestMatVecDiagSparseSkipsZeroDiagonals pins that identically-zero
// diagonals generate no PCmults: a tridiagonal matrix plans exactly
// three diagonals however large the geometry.
func TestMatVecDiagSparseSkipsZeroDiagonals(t *testing.T) {
	tri := func(r, c int) float64 {
		if c-r >= -1 && c-r <= 1 {
			return 1 + float64(r+c)
		}
		return 0
	}
	l := NewMatVecDiag("tri", 8, 8, 32, tri, func(r int) float64 { return 0 })
	if l.nonzero != 3 {
		t.Fatalf("tridiagonal plans %d diagonals, want 3", l.nonzero)
	}
	rec, _, _ := countLayer(l, &State{CTs: make([]*CT, 1), Kind: Contiguous, N: 8}, 7)
	if got := rec.Layer("tri").Count(ckks.OpPCmult); got != 3 {
		t.Errorf("PCmults = %d, want 3", got)
	}
}

// TestMatVecDiagAllZero pins the degenerate all-zero matrix: the output
// is the bias, delivered at the generic path's level schedule.
func TestMatVecDiagAllZero(t *testing.T) {
	l := NewMatVecDiag("zero", 3, 5, 16,
		func(r, c int) float64 { return 0 },
		func(r int) float64 { return float64(r + 1) })
	rec, _, outLevel := countLayer(l, &State{CTs: make([]*CT, 1), Kind: Contiguous, N: 5}, 7)
	if outLevel != 6 {
		t.Errorf("all-zero output level = %d, want one level consumed", outLevel)
	}
	if got := rec.Layer("zero").Count(ckks.OpRotate); got != 0 {
		t.Errorf("all-zero matrix rotated %d times", got)
	}
}

// TestMatVecDiagGeometryPanic pins the aliasing guard: more diagonals
// than slots must refuse to compile.
func TestMatVecDiagGeometryPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for rows+cols-1 > slots")
		}
	}()
	NewMatVecDiag("big", 10, 10, 16, func(r, c int) float64 { return 1 }, nil)
}

// TestMatVecDiagEncrypted checks the standalone layer against the exact
// product on real ciphertexts, with garbage planted in the input slots
// beyond Cols to verify the diagonal plaintexts mask it out.
func TestMatVecDiagEncrypted(t *testing.T) {
	params := tinyParams()
	slots := params.Slots()
	const rows, cols = 5, 12
	w := denseWeight(3)
	bias := func(r int) float64 { return 0.1 * float64(r) }
	l := NewMatVecDiag("fc", rows, cols, slots, w, bias)

	x := make([]float64, slots)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < cols; i++ {
		x[i] = rng.Float64() - 0.5
	}
	for i := cols; i < slots; i++ {
		x[i] = 10 * (rng.Float64() - 0.5) // garbage that must not leak
	}
	want := make([]float64, rows)
	for r := 0; r < rows; r++ {
		want[r] = bias(r)
		for c := 0; c < cols; c++ {
			want[r] += w(r, c) * x[c]
		}
	}

	// Fold the rotation set, then evaluate for real.
	ctx := NewContext(params, 5, layerRotations(l, &State{CTs: make([]*CT, 1), Kind: Contiguous, N: cols}, params.MaxLevel()))
	in := &State{CTs: []*CT{ctx.EncryptVector(x)}, Kind: Contiguous, N: cols}
	out := l.Apply(NewCryptoBackend(ctx, nil), in)
	got := ctx.DecryptVector(out.CTs[0])
	for r := 0; r < rows; r++ {
		if math.Abs(got[r]-want[r]) > encoderTolerance {
			t.Errorf("slot %d: %g, want %g", r, got[r], want[r])
		}
	}
	for r := rows; r < rows+4 && r < len(got); r++ {
		if math.Abs(got[r]) > encoderTolerance {
			t.Errorf("slot %d above Rows not zeroed: %g", r, got[r])
		}
	}
}

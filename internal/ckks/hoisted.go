package ckks

// Hoisted rotations (Halevi-Shoup): the expensive part of a rotation is the
// keyswitch decomposition of c1 — one INTT plus a forward NTT per (digit,
// modulus) pair. When the same ciphertext is rotated by many amounts, the
// decomposition can be computed once and only permuted per rotation,
// because the Galois map is an index permutation in the NTT domain. The
// paper rotates one amount at a time; here hoisting serves the baby steps
// of every BSGS layer (hecnn's Backend.RotateMany), which BSGS serving
// depends on, and BenchmarkHoistedRotations quantifies the saving.

// hoistedDecomposition is the reusable NTT-domain keyswitch decomposition
// of a ciphertext's c1 part over the extended basis (q_0..q_{k-1}, p):
// [digit][row][coeff], with the special prime as row k.
type hoistedDecomposition [][][]uint64

// decomposeForRotation computes the hoisted decomposition of ct (degree 1).
func (ev *Evaluator) decomposeForRotation(ct *Ciphertext) hoistedDecomposition {
	if ct.Degree() != 1 {
		panic("ckks: hoisting requires a degree-1 ciphertext")
	}
	r := ev.params.Ring()
	k := ct.Level()
	cc := ct.Value[1].Copy()
	r.INTT(cc)

	hd := make(hoistedDecomposition, k)
	// Each digit's extended-basis expansion writes only its own slices.
	r.Pool().Do(k, func(i int) {
		hd[i] = make([][]uint64, k+1)
		for j := range hd[i] {
			rj := j
			if j == k {
				rj = ev.params.L
			}
			hd[i][j] = make([]uint64, r.N)
			expandDigit(r, hd[i][j], cc.Coeffs[i], i, rj)
		}
	})
	return hd
}

// RotateHoisted rotates ct by every amount in ks using one shared
// decomposition, returning a map from rotation amount to result. Rotation
// by zero returns a copy.
func (ev *Evaluator) RotateHoisted(ct *Ciphertext, ks []int) map[int]*Ciphertext {
	if ev.rtk == nil {
		panic("ckks: no rotation keys")
	}
	hd := ev.decomposeForRotation(ct)
	out := make(map[int]*Ciphertext, len(ks))
	for _, k := range ks {
		if _, done := out[k]; done {
			continue
		}
		if k == 0 {
			out[0] = ct.Copy()
			continue
		}
		out[k] = ev.rotate(ct, k, hd)
	}
	return out
}

package ckks

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// TestKeyViewsMatchFullKeys: Rotate, RotateHoisted and Relinearize with
// the AtLevel(l) views of the keys are bit-identical to the full keys at
// every operand level ≤ l, and refuse an operand at l+1 by naming both
// levels.
func TestKeyViewsMatchFullKeys(t *testing.T) {
	rots := []int{1, 3}
	tc := newTestContext(t, rots)
	rng := rand.New(rand.NewSource(62))
	L := tc.params.L
	for l := 1; l <= L; l++ {
		if got := tc.rlk.AtLevel(l).Level(); got != l {
			t.Fatalf("AtLevel(%d).Level() = %d", l, got)
		}
		view := NewEvaluator(tc.params, &RelinearizationKey{*tc.rlk.AtLevel(l)}, viewsAt(tc.rtk, l))
		for level := 1; level <= l; level++ {
			ct := tc.encryptVec(randVec(tc.params.Slots(), 1, rng), level)
			for _, k := range rots {
				if a, b := tc.eval.RotateNew(ct, k).Digest(), view.RotateNew(ct, k).Digest(); a != b {
					t.Errorf("view %d, level %d: Rotate(%d) digest %s, full key %s", l, level, k, b, a)
				}
			}
			full, hoisted := tc.eval.RotateHoisted(ct, rots), view.RotateHoisted(ct, rots)
			for _, k := range rots {
				if a, b := full[k].Digest(), hoisted[k].Digest(); a != b {
					t.Errorf("view %d, level %d: RotateHoisted(%d) digest %s, full key %s", l, level, k, b, a)
				}
			}
			if a, b := tc.eval.MulNew(ct, ct).Digest(), view.MulNew(ct, ct).Digest(); a != b {
				t.Errorf("view %d, level %d: Relinearize digest %s, full key %s", l, level, b, a)
			}
		}
		if l == L {
			continue
		}
		ct := tc.encryptVec(randVec(tc.params.Slots(), 1, rng), l+1)
		want := fmt.Sprintf("switching key holds levels ≤ %d, operand at level %d", l, l+1)
		for name, op := range map[string]func(){
			"Rotate":        func() { view.RotateNew(ct, rots[0]) },
			"RotateHoisted": func() { view.RotateHoisted(ct, rots) },
			"Relinearize":   func() { view.MulNew(ct, ct) },
		} {
			if msg := panicMessage(op); !strings.Contains(msg, want) {
				t.Errorf("view %d: %s at level %d panicked %q, want %q", l, name, l+1, msg, want)
			}
		}
	}
	if msg := panicMessage(func() { tc.rlk.AtLevel(L + 1) }); msg == "" {
		t.Error("AtLevel above the key's level did not panic")
	}
}

// viewsAt returns the level-l views of every key in rtk.
func viewsAt(rtk *RotationKeys, l int) *RotationKeys {
	out := &RotationKeys{Keys: map[uint64]*SwitchingKey{}}
	for g, swk := range rtk.Keys {
		out.Keys[g] = swk.AtLevel(l)
	}
	return out
}

// panicMessage runs f and returns what it panicked with, or "".
func panicMessage(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}

// TestKeyViewsShareRows: a view holds the source key's own row slices —
// its first l rows and the special-prime row — not copies.
func TestKeyViewsShareRows(t *testing.T) {
	tc := newTestContext(t, nil)
	full := &tc.rlk.SwitchingKey
	v := full.AtLevel(2)
	for i := range v.B {
		for j, row := range v.B[i].Coeffs {
			src := j
			if j == v.Level() {
				src = full.Level()
			}
			if &row[0] != &full.B[i].Coeffs[src][0] {
				t.Fatalf("digit %d row %d is not the source key's row %d", i, j, src)
			}
		}
	}
	// A view of a view keeps the special-prime row last.
	if vv := v.AtLevel(1); &vv.A[0].Coeffs[1][0] != &full.A[0].Coeffs[full.Level()][0] {
		t.Fatal("view of a view lost the special-prime row")
	}
}

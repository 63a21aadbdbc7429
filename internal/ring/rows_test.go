package ring

import "testing"

// TestRowsRecycle: a recycled polynomial loses its rows, NewPolyFrom
// hands them out again zeroed however dirty they went back (poisoned
// too, under the race detector), ScratchRowFrom as they went back, and a
// nil list allocates and drops.
func TestRowsRecycle(t *testing.T) {
	r := testRing(t, 32, 3)
	var rows Rows
	p := r.NewPolyFrom(&rows, 3)
	held := map[*uint64]bool{}
	for _, row := range p.Coeffs {
		for j := range row {
			row[j] = uint64(j + 1)
		}
		held[&row[0]] = true
	}
	rows.Recycle(p)
	if p.Coeffs != nil {
		t.Fatal("Recycle left the polynomial its rows")
	}
	if poisonRows && rows.free[0][0] != poisonWord {
		t.Fatal("race build: recycled row not poisoned")
	}
	q := r.NewPolyFrom(&rows, 2)
	for i, row := range q.Coeffs {
		if !held[&row[0]] {
			t.Fatalf("row %d was allocated, not taken from the list", i)
		}
		for j, v := range row {
			if v != 0 {
				t.Fatalf("row %d coeff %d = %#x, want a zeroed row", i, j, v)
			}
		}
	}
	if len(rows.free) != 1 {
		t.Fatalf("%d rows left on the list, want 1", len(rows.free))
	}
	// ScratchRowFrom hands a row back as it went in: dirty, or poisoned.
	dirty := q.Coeffs[0]
	dirty[0] = 7
	rows.RecycleRow(dirty)
	want := uint64(7)
	if poisonRows {
		want = poisonWord
	}
	if s := r.ScratchRowFrom(&rows); &s[0] != &dirty[0] || s[0] != want {
		t.Fatalf("ScratchRowFrom gave %#x, want the recycled row holding %#x", s[0], want)
	}
	// A list that runs dry allocates the rest.
	if z := r.NewPolyFrom(&rows, 3); z.K() != 3 || len(rows.free) != 0 {
		t.Fatalf("dry list: %d rows, %d left free", z.K(), len(rows.free))
	}

	var none *Rows
	n := r.NewPolyFrom(none, 2)
	if n.K() != 2 || len(n.Coeffs[1]) != r.N {
		t.Fatal("NewPolyFrom(nil) is not NewPoly")
	}
	none.Recycle(n)
	if n.Coeffs == nil {
		t.Fatal("a nil list took the rows")
	}
}

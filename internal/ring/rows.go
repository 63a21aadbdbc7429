package ring

// Rows is a free list of residue rows, each N words of one ring. An
// evaluation takes its outputs and temporaries from one list and gives
// back the rows of values it is done with, so it allocates only up to its
// peak of live rows rather than one row per operation — the software form
// of the accelerator's buffers, which every layer reuses in turn (the
// §VI-A buffer model).
//
// A Rows is not safe for concurrent use: a caller that fans work out takes
// every row it needs before the fan-out. The zero value is an empty list;
// a nil *Rows is no list at all, so NewPolyFrom and ScratchRowFrom
// allocate and Recycle and RecycleRow drop.
type Rows struct {
	free [][]uint64
}

// ScratchRowFrom returns one row of r's degree from rows, or a fresh one
// when rows is empty or nil. It is not zeroed: it is for a caller that
// overwrites every word before it reads one, and a recycled row keeps
// what it held (the poison word under the race detector).
func (r *Ring) ScratchRowFrom(rows *Rows) []uint64 {
	if row := rows.pop(r.N); row != nil {
		return row
	}
	return make([]uint64, r.N)
}

// pop takes the most recently recycled row, of n words, off the list; it
// returns nil when the list is empty or nil.
func (rows *Rows) pop(n int) []uint64 {
	if rows == nil || len(rows.free) == 0 {
		return nil
	}
	last := len(rows.free) - 1
	row := rows.free[last]
	rows.free[last] = nil
	rows.free = rows.free[:last]
	if len(row) != n {
		panic("ring: free row of another degree")
	}
	return row
}

// Recycle gives every row of p back to the list and leaves p without
// rows (p.Coeffs nil), so a stale use of p fails at once. The caller
// guarantees that nothing else holds any of the rows.
func (rows *Rows) Recycle(p *Poly) {
	if rows == nil {
		return
	}
	for _, row := range p.Coeffs {
		rows.RecycleRow(row)
	}
	p.Coeffs = nil
}

// RecycleRow gives one row back to the list. Under the race detector the
// row is first filled with poisonWord, so a read of it after this call
// corrupts a result instead of going unseen.
func (rows *Rows) RecycleRow(row []uint64) {
	if rows == nil {
		return
	}
	if poisonRows {
		for i := range row {
			row[i] = poisonWord
		}
	}
	rows.free = append(rows.free, row)
}

// poisonWord fills recycled rows under the race detector: a word above
// every modulus, so a recycled row read as a residue is out of range.
const poisonWord = 0xDEAD_BEEF_DEAD_BEEF

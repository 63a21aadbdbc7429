package ring

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Binary serialization of RNS polynomials: little-endian framing of the row
// count, degree, and raw residue words. This is the wire unit for the
// ciphertext and key material the MLaaS protocol moves between client and
// server — the traffic whose volume the paper's "5-6 orders of magnitude"
// overhead refers to.

// ErrDimensions marks a serialized polynomial whose header declares a row
// count or degree outside the reader's bounds.
var ErrDimensions = errors.New("implausible poly dimensions")

// WriteTo serializes p.
func (p *Poly) WriteTo(w io.Writer) (int64, error) {
	var n int64
	hdr := [8]byte{}
	binary.LittleEndian.PutUint32(hdr[0:], uint32(p.K()))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(p.Coeffs[0])))
	m, err := w.Write(hdr[:])
	n += int64(m)
	if err != nil {
		return n, err
	}
	buf := make([]byte, 8*len(p.Coeffs[0]))
	for _, row := range p.Coeffs {
		for i, v := range row {
			binary.LittleEndian.PutUint64(buf[8*i:], v)
		}
		m, err = w.Write(buf)
		n += int64(m)
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// ReadPoly deserializes a polynomial written by WriteTo. maxK and maxN cap
// the accepted dimensions so a corrupt stream cannot drive huge
// allocations.
func ReadPoly(r io.Reader, maxK, maxN int) (*Poly, error) {
	hdr := [8]byte{}
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	k := int(binary.LittleEndian.Uint32(hdr[0:]))
	n := int(binary.LittleEndian.Uint32(hdr[4:]))
	if k < 1 || k > maxK || n < 1 || n > maxN {
		return nil, fmt.Errorf("ring: %w %dx%d", ErrDimensions, k, n)
	}
	p := &Poly{Coeffs: make([][]uint64, k)}
	buf := make([]byte, 8*n)
	for i := 0; i < k; i++ {
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, err
		}
		row := make([]uint64, n)
		for j := range row {
			row[j] = binary.LittleEndian.Uint64(buf[8*j:])
		}
		p.Coeffs[i] = row
	}
	return p, nil
}

// SerializedSize returns the byte size WriteTo will produce.
func (p *Poly) SerializedSize() int {
	return 8 + 8*p.K()*len(p.Coeffs[0])
}

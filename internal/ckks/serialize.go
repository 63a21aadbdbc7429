package ckks

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"fxhenn/internal/ring"
)

// ErrMalformed marks deserialization failures caused by the byte stream
// itself (bad tag, implausible header fields, inconsistent structure) as
// opposed to transport errors. Callers such as the MLaaS server use
// errors.Is(err, ErrMalformed) to map corrupt client data to a
// bad-request status instead of an internal error.
var ErrMalformed = errors.New("malformed serialized data")

// Binary serialization of CKKS elements, used by the MLaaS protocol
// (client encrypts and ships ciphertexts) and by the digests that pin
// evaluation results. Format: a one-byte kind tag, fixed little-endian
// headers, then raw RNS rows.

const (
	tagCiphertext byte = 0xC1
	tagPlaintext  byte = 0xC2
)

// maxSerializedParts bounds ciphertext degree on the wire.
const maxSerializedParts = 8

// WriteTo serializes the ciphertext.
func (ct *Ciphertext) WriteTo(w io.Writer) (int64, error) { return ct.WriteToBuf(w, new([]byte)) }

// WriteToBuf is WriteTo through the caller's byte scratch *buf
// (ring.Poly.WriteToBuf): a caller that writes many ciphertexts allocates
// one row's bytes once.
func (ct *Ciphertext) WriteToBuf(w io.Writer, buf *[]byte) (int64, error) {
	var n int64
	hdr := [10]byte{tagCiphertext}
	hdr[1] = byte(len(ct.Value))
	binary.LittleEndian.PutUint64(hdr[2:], math.Float64bits(ct.Scale))
	m, err := w.Write(hdr[:])
	n += int64(m)
	if err != nil {
		return n, err
	}
	for _, p := range ct.Value {
		mm, err := p.WriteToBuf(w, buf)
		n += mm
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// ReadCiphertext deserializes a ciphertext under the given parameters.
func ReadCiphertext(r io.Reader, params Parameters) (*Ciphertext, error) {
	return ReadCiphertextBuf(r, params, new([]byte))
}

// ReadCiphertextBuf is ReadCiphertext through the caller's byte scratch
// *buf, as WriteToBuf's.
func ReadCiphertextBuf(r io.Reader, params Parameters, buf *[]byte) (*Ciphertext, error) {
	hdr := [10]byte{}
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	if hdr[0] != tagCiphertext {
		return nil, fmt.Errorf("ckks: %w: bad ciphertext tag 0x%02x", ErrMalformed, hdr[0])
	}
	parts := int(hdr[1])
	if parts < 1 || parts > maxSerializedParts {
		return nil, fmt.Errorf("ckks: %w: implausible ciphertext degree %d", ErrMalformed, parts)
	}
	ct := &Ciphertext{Scale: math.Float64frombits(binary.LittleEndian.Uint64(hdr[2:]))}
	// The scale of any ciphertext a correct peer produces lies between 1
	// (fully rescaled) and the squared encoding scale (transiently, after a
	// multiplication before rescale); anything outside is corrupt bytes.
	if ct.Scale < 1 || ct.Scale > math.Exp2(float64(4*params.QBits)) ||
		math.IsNaN(ct.Scale) || math.IsInf(ct.Scale, 0) {
		return nil, fmt.Errorf("ckks: %w: implausible ciphertext scale %g", ErrMalformed, ct.Scale)
	}
	// Every structural bound is checked before the corresponding
	// allocation: ring.ReadPoly caps the RNS row count and degree from the
	// header before allocating rows, and the cross-part level check runs
	// as each part arrives, so a stream whose parts disagree is rejected
	// without reading (or allocating) the remainder.
	for i := 0; i < parts; i++ {
		p, err := ring.ReadPoly(r, params.L, params.N(), buf)
		if err != nil {
			return nil, err
		}
		if len(p.Coeffs[0]) != params.N() {
			return nil, fmt.Errorf("ckks: %w: ring degree mismatch %d != %d", ErrMalformed, len(p.Coeffs[0]), params.N())
		}
		if i > 0 && p.K() != ct.Value[0].K() {
			return nil, fmt.Errorf("ckks: %w: inconsistent ciphertext levels %d != %d", ErrMalformed, p.K(), ct.Value[0].K())
		}
		ct.Value = append(ct.Value, p)
	}
	return ct, nil
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (ct *Ciphertext) MarshalBinary() ([]byte, error) {
	var buf bytes.Buffer
	if _, err := ct.WriteTo(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// SerializedSize returns the exact wire size of the ciphertext.
func (ct *Ciphertext) SerializedSize() int {
	n := 10
	for _, p := range ct.Value {
		n += p.SerializedSize()
	}
	return n
}

// WriteTo serializes the plaintext (scale, NTT flag, poly).
func (pt *Plaintext) WriteTo(w io.Writer) (int64, error) {
	if pt.IsMontgomery {
		return 0, errors.New("ckks: WriteTo: " + errMontgomery)
	}
	if pt.Const != nil {
		return 0, errors.New("ckks: WriteTo: plaintext is in constant form, an evaluator operand only")
	}
	var n int64
	hdr := [11]byte{tagPlaintext}
	binary.LittleEndian.PutUint64(hdr[1:], math.Float64bits(pt.Scale))
	if pt.IsNTT {
		hdr[9] = 1
	}
	m, err := w.Write(hdr[:])
	n += int64(m)
	if err != nil {
		return n, err
	}
	mm, err := pt.Value.WriteTo(w)
	return n + mm, err
}

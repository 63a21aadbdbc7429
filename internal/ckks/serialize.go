package ckks

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
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

// Binary serialization of CKKS elements and key material, used by the
// MLaaS protocol (client encrypts and ships ciphertexts; the server holds
// evaluation keys) and by anyone persisting encrypted state. Format: a
// one-byte kind tag, fixed little-endian headers, then raw RNS rows.

const (
	tagCiphertext byte = 0xC1
	tagPlaintext  byte = 0xC2
	tagPublicKey  byte = 0xC3
	tagSwitchKey  byte = 0xC4
)

// maxSerializedParts bounds ciphertext degree on the wire.
const maxSerializedParts = 8

// WriteTo serializes the ciphertext.
func (ct *Ciphertext) WriteTo(w io.Writer) (int64, error) {
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
		mm, err := p.WriteTo(w)
		n += mm
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// ReadCiphertext deserializes a ciphertext under the given parameters.
func ReadCiphertext(r io.Reader, params Parameters) (*Ciphertext, error) {
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
		p, err := ring.ReadPoly(r, params.L, params.N())
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

// Digest returns the hex-encoded SHA-256 of the ciphertext's serialized
// form. Two ciphertexts digest equal iff every RNS residue, the scale and
// the degree are bit-identical — the equality the parallel-vs-serial
// determinism tests pin.
func (ct *Ciphertext) Digest() string {
	h := sha256.New()
	if _, err := ct.WriteTo(h); err != nil {
		panic(err) // a Montgomery-form plaintext; hash.Hash never errors on Write
	}
	return hex.EncodeToString(h.Sum(nil))
}

// SerializedSize returns the exact wire size of the ciphertext.
func (ct *Ciphertext) SerializedSize() int {
	n := 10
	for _, p := range ct.Value {
		n += p.SerializedSize()
	}
	return n
}

// Digest returns the hex-encoded SHA-256 of the plaintext's serialized
// form — the witness of the Plaintext reuse contract: using a plaintext
// as an evaluator operand never changes its digest.
func (pt *Plaintext) Digest() string {
	h := sha256.New()
	if _, err := pt.WriteTo(h); err != nil {
		panic(err) // a Montgomery-form plaintext; hash.Hash never errors on Write
	}
	return hex.EncodeToString(h.Sum(nil))
}

// WriteTo serializes the plaintext (scale, NTT flag, poly).
func (pt *Plaintext) WriteTo(w io.Writer) (int64, error) {
	if pt.IsMontgomery {
		return 0, errors.New("ckks: WriteTo: " + errMontgomery)
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

// ReadPlaintext deserializes a plaintext.
func ReadPlaintext(r io.Reader, params Parameters) (*Plaintext, error) {
	hdr := [11]byte{}
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	if hdr[0] != tagPlaintext {
		return nil, fmt.Errorf("ckks: %w: bad plaintext tag 0x%02x", ErrMalformed, hdr[0])
	}
	pt := &Plaintext{
		Scale: math.Float64frombits(binary.LittleEndian.Uint64(hdr[1:])),
		IsNTT: hdr[9] == 1,
	}
	var err error
	pt.Value, err = ring.ReadPoly(r, params.L, params.N())
	return pt, err
}

// WriteTo serializes the public key.
func (pk *PublicKey) WriteTo(w io.Writer) (int64, error) {
	var n int64
	m, err := w.Write([]byte{tagPublicKey})
	n += int64(m)
	if err != nil {
		return n, err
	}
	for _, p := range []*ring.Poly{pk.B, pk.A} {
		mm, err := p.WriteTo(w)
		n += mm
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// ReadPublicKey deserializes a public key.
func ReadPublicKey(r io.Reader, params Parameters) (*PublicKey, error) {
	tag := [1]byte{}
	if _, err := io.ReadFull(r, tag[:]); err != nil {
		return nil, err
	}
	if tag[0] != tagPublicKey {
		return nil, fmt.Errorf("ckks: %w: bad public key tag 0x%02x", ErrMalformed, tag[0])
	}
	b, err := readKeyPoly(r, params, params.L)
	if err != nil {
		return nil, err
	}
	a, err := readKeyPoly(r, params, params.L)
	if err != nil {
		return nil, err
	}
	return &PublicKey{B: b, A: a}, nil
}

// readKeyPoly reads one key polynomial that must hold exactly rows rows of
// params.N() coefficients: key material of any other shape is malformed,
// and would otherwise surface as an index panic at its first use.
func readKeyPoly(r io.Reader, params Parameters, rows int) (*ring.Poly, error) {
	p, err := ring.ReadPoly(r, rows, params.N())
	if errors.Is(err, ring.ErrDimensions) {
		return nil, fmt.Errorf("ckks: %w: %v", ErrMalformed, err)
	}
	if err != nil {
		return nil, err
	}
	if p.K() != rows || len(p.Coeffs[0]) != params.N() {
		return nil, fmt.Errorf("ckks: %w: key poly of %d×%d, want %d×%d",
			ErrMalformed, p.K(), len(p.Coeffs[0]), rows, params.N())
	}
	return p, nil
}

// WriteTo serializes a switching key (all its digits; the paper's "large
// data volume" keyswitch keys).
func (swk *SwitchingKey) WriteTo(w io.Writer) (int64, error) {
	var n int64
	hdr := [3]byte{tagSwitchKey, byte(len(swk.B)), 0}
	m, err := w.Write(hdr[:])
	n += int64(m)
	if err != nil {
		return n, err
	}
	for i := range swk.B {
		for _, p := range []*ring.Poly{swk.B[i], swk.A[i]} {
			mm, err := p.WriteTo(w)
			n += mm
			if err != nil {
				return n, err
			}
		}
	}
	return n, nil
}

// ReadSwitchingKey deserializes a switching key: a generated key or a
// level view, each digit's polys holding exactly digits+1 rows (the
// digits' q-primes, then the special prime).
func ReadSwitchingKey(r io.Reader, params Parameters) (*SwitchingKey, error) {
	hdr := [3]byte{}
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	if hdr[0] != tagSwitchKey {
		return nil, fmt.Errorf("ckks: %w: bad switching key tag 0x%02x", ErrMalformed, hdr[0])
	}
	digits := int(hdr[1])
	if digits < 1 || digits > params.L {
		return nil, fmt.Errorf("ckks: %w: implausible digit count %d", ErrMalformed, digits)
	}
	swk := &SwitchingKey{}
	for i := 0; i < digits; i++ {
		b, err := readKeyPoly(r, params, digits+1)
		if err != nil {
			return nil, err
		}
		a, err := readKeyPoly(r, params, digits+1)
		if err != nil {
			return nil, err
		}
		swk.B = append(swk.B, b)
		swk.A = append(swk.A, a)
	}
	return swk, nil
}

package ckks

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"math/rand"
	"testing"
)

func TestCiphertextSerializationRoundTrip(t *testing.T) {
	tc := newTestContext(t, nil)
	rng := rand.New(rand.NewSource(50))
	v := randVec(tc.params.Slots(), 5, rng)
	ct := tc.encryptVec(v, 3)

	var buf bytes.Buffer
	n, err := ct.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if int(n) != ct.SerializedSize() || buf.Len() != ct.SerializedSize() {
		t.Fatalf("size mismatch: wrote %d, SerializedSize %d, buf %d", n, ct.SerializedSize(), buf.Len())
	}
	got, err := ReadCiphertext(&buf, tc.params)
	if err != nil {
		t.Fatal(err)
	}
	if got.Level() != ct.Level() || got.Degree() != ct.Degree() || got.Scale != ct.Scale {
		t.Fatal("metadata mismatch after roundtrip")
	}
	// The deserialized ciphertext must decrypt identically.
	requireClose(t, tc.enc.Decode(tc.decr.Decrypt(got))[:16], v[:16], 1e-4, "roundtrip decrypt")
}

func TestCiphertextSerializationSurvivesOps(t *testing.T) {
	tc := newTestContext(t, []int{1})
	rng := rand.New(rand.NewSource(51))
	v := randVec(tc.params.Slots(), 2, rng)
	ct := tc.encryptVec(v, 4)

	var buf bytes.Buffer
	if _, err := ct.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCiphertext(&buf, tc.params)
	if err != nil {
		t.Fatal(err)
	}
	rot := tc.eval.RotateNew(got, 1)
	dec := tc.decryptVec(rot)
	slots := tc.params.Slots()
	for i := 0; i < 16; i++ {
		want := v[(i+1)%slots]
		if diff := dec[i] - want; diff > 1e-2 || diff < -1e-2 {
			t.Fatalf("slot %d after deserialization+rotate: %g want %g", i, dec[i], want)
		}
	}
}

func TestDeserializationRejectsGarbage(t *testing.T) {
	tc := newTestContext(t, nil)
	// Wrong tag.
	if _, err := ReadCiphertext(bytes.NewReader(make([]byte, 64)), tc.params); err == nil {
		t.Fatal("zero bytes accepted as ciphertext")
	}
	// Truncated stream.
	ct := tc.encryptVec(randVec(8, 1, rand.New(rand.NewSource(55))), 2)
	raw, _ := ct.MarshalBinary()
	if _, err := ReadCiphertext(bytes.NewReader(raw[:len(raw)/2]), tc.params); err == nil {
		t.Fatal("truncated ciphertext accepted")
	}
	// Implausible degree.
	bad := append([]byte(nil), raw...)
	bad[1] = 200
	if _, err := ReadCiphertext(bytes.NewReader(bad), tc.params); err == nil {
		t.Fatal("degree-200 ciphertext accepted")
	}
	// Implausible scale.
	bad = append([]byte(nil), raw...)
	for i := 2; i < 10; i++ {
		bad[i] = 0xFF
	}
	if _, err := ReadCiphertext(bytes.NewReader(bad), tc.params); err == nil {
		t.Fatal("NaN scale accepted")
	}
}

// TestMalformedStreamsAreTyped: every structural rejection must wrap
// ErrMalformed (the MLaaS server keys its bad-request mapping off it) and
// the scale bound must reject values a correct peer can never produce,
// even when they are perfectly finite floats.
func TestMalformedStreamsAreTyped(t *testing.T) {
	tc := newTestContext(t, nil)
	ct := tc.encryptVec(randVec(8, 1, rand.New(rand.NewSource(56))), 2)
	raw, _ := ct.MarshalBinary()

	putScale := func(b []byte, s float64) {
		binary.LittleEndian.PutUint64(b[2:], math.Float64bits(s))
	}
	cases := map[string][]byte{}

	bad := append([]byte(nil), raw...)
	bad[0] = 0x00
	cases["wrong tag"] = bad

	bad = append([]byte(nil), raw...)
	bad[1] = 0
	cases["zero degree"] = bad

	bad = append([]byte(nil), raw...)
	putScale(bad, 0.5) // finite, positive, but below any rescaled scale
	cases["sub-unit scale"] = bad

	bad = append([]byte(nil), raw...)
	putScale(bad, math.Exp2(float64(4*tc.params.QBits)+1)) // finite but past the post-mul bound
	cases["oversized scale"] = bad

	for name, stream := range cases {
		if _, err := ReadCiphertext(bytes.NewReader(stream), tc.params); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: err = %v, want ErrMalformed", name, err)
		}
	}

	// Parts at different levels: a degree-2 header whose second poly sits
	// at a different level than the first must be rejected mid-stream.
	other := tc.encryptVec(randVec(8, 1, rand.New(rand.NewSource(57))), 4)
	var mixed bytes.Buffer
	hdr := [10]byte{tagCiphertext, 2}
	binary.LittleEndian.PutUint64(hdr[2:], math.Float64bits(ct.Scale))
	mixed.Write(hdr[:])
	if _, err := ct.Value[0].WriteTo(&mixed); err != nil {
		t.Fatal(err)
	}
	if _, err := other.Value[0].WriteTo(&mixed); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadCiphertext(&mixed, tc.params); !errors.Is(err, ErrMalformed) {
		t.Fatalf("inconsistent part levels: want ErrMalformed, got %v", err)
	}
}

// TestCiphertextSizeMatchesParams verifies the advertised ciphertext sizes
// (the basis of the paper's storage-overhead statements).
func TestCiphertextSizeMatchesParams(t *testing.T) {
	tc := newTestContext(t, nil)
	ct := tc.encryptVec([]float64{1}, 3)
	want := 2*3*tc.params.N()*8 + 10 + 2*8 // two level-3 polys + header + 2 poly headers
	if got := ct.SerializedSize(); got != want {
		t.Fatalf("serialized size %d want %d", got, want)
	}
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

// Digest returns the hex-encoded SHA-256 of the plaintext's serialized
// form — the witness of the Plaintext reuse contract: using a plaintext
// as an evaluator operand never changes its digest.
func (pt *Plaintext) Digest() string {
	h := sha256.New()
	if _, err := pt.WriteTo(h); err != nil {
		panic(err) // a Montgomery-form or constant plaintext; hash.Hash never errors on Write
	}
	return hex.EncodeToString(h.Sum(nil))
}

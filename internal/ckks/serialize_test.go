package ckks

import (
	"bytes"
	"encoding/binary"
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

func TestPlaintextSerializationRoundTrip(t *testing.T) {
	tc := newTestContext(t, nil)
	rng := rand.New(rand.NewSource(52))
	v := randVec(tc.params.Slots(), 3, rng)
	pt := tc.enc.Encode(v, 2, tc.params.Scale)

	var buf bytes.Buffer
	if _, err := pt.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPlaintext(&buf, tc.params)
	if err != nil {
		t.Fatal(err)
	}
	if got.Scale != pt.Scale || got.IsNTT != pt.IsNTT {
		t.Fatal("plaintext metadata mismatch")
	}
	requireClose(t, tc.enc.Decode(got)[:16], v[:16], 1e-5, "plaintext roundtrip")
}

func TestPublicKeySerializationRoundTrip(t *testing.T) {
	tc := newTestContext(t, nil)
	var buf bytes.Buffer
	if _, err := tc.pk.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPublicKey(&buf, tc.params)
	if err != nil {
		t.Fatal(err)
	}
	// Encrypting with the deserialized key must decrypt correctly.
	enc2 := NewEncryptor(tc.params, got, 777)
	rng := rand.New(rand.NewSource(53))
	v := randVec(tc.params.Slots(), 2, rng)
	ct := enc2.Encrypt(tc.enc.Encode(v, 3, tc.params.Scale))
	requireClose(t, tc.decryptVec(ct)[:16], v[:16], 1e-4, "pk roundtrip encrypt")
}

func TestSwitchingKeySerializationRoundTrip(t *testing.T) {
	tc := newTestContext(t, []int{2})
	g := tc.params.GaloisElementForRotation(2)
	swk := tc.rtk.Keys[g]

	var buf bytes.Buffer
	if _, err := swk.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSwitchingKey(&buf, tc.params)
	if err != nil {
		t.Fatal(err)
	}
	// Build an evaluator around the deserialized key and rotate with it.
	rtk2 := &RotationKeys{Keys: map[uint64]*SwitchingKey{g: got}}
	eval2 := NewEvaluator(tc.params, nil, rtk2)
	rng := rand.New(rand.NewSource(54))
	v := randVec(tc.params.Slots(), 2, rng)
	ct := tc.encryptVec(v, 3)
	rot := eval2.RotateNew(ct, 2)
	dec := tc.decryptVec(rot)
	slots := tc.params.Slots()
	for i := 0; i < 16; i++ {
		want := v[(i+2)%slots]
		if d := dec[i] - want; d > 1e-2 || d < -1e-2 {
			t.Fatalf("slot %d via deserialized Galois key: %g want %g", i, dec[i], want)
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
	want := tc.params.CiphertextBytes(3) + 10 + 2*8 // payload + header + 2 poly headers
	if got := ct.SerializedSize(); got != want {
		t.Fatalf("serialized size %d want %d", got, want)
	}
}

// TestKeySizeAccounting: the analytic switching-key size at level l
// matches the serialized size of a generated key (l = L) and of every
// level view.
func TestKeySizeAccounting(t *testing.T) {
	tc := newTestContext(t, []int{1, 2})
	keys := []*SwitchingKey{&tc.rlk.SwitchingKey}
	for _, swk := range tc.rtk.Keys {
		keys = append(keys, swk)
	}
	for _, full := range keys {
		for l := 1; l <= full.Level(); l++ {
			swk := full.AtLevel(l)
			if l == full.Level() {
				swk = full
			}
			var buf bytes.Buffer
			if _, err := swk.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			want := SwitchingKeyBytes(tc.params, l)
			if int64(buf.Len()) != want || int64(swk.SerializedSize()) != want {
				t.Fatalf("level %d: wrote %d, SerializedSize %d, analytic %d", l, buf.Len(), swk.SerializedSize(), want)
			}
		}
	}
	if got, want := int64(tc.rtk.SerializedSize()), int64(len(tc.rtk.Keys))*SwitchingKeyBytes(tc.params, tc.params.L); got != want {
		t.Fatalf("rotation keys %d bytes, analytic %d", got, want)
	}
	var pkBuf bytes.Buffer
	tc.pk.WriteTo(&pkBuf) //nolint:errcheck
	if pkBuf.Len() != tc.pk.SerializedSize() {
		t.Fatal("pk size mismatch")
	}
}

package ckks

import (
	"bytes"
	"testing"
)

// FuzzReadCiphertext hardens the wire format: arbitrary byte streams must
// either parse into a structurally-valid ciphertext or error — never panic
// or allocate absurdly. Seeds include a genuine serialized ciphertext and
// several mutations.
func FuzzReadCiphertext(f *testing.F) {
	params := NewParameters(6, 30, 3, 45) // tiny ring keeps the fuzzer fast
	kg := NewKeyGenerator(params, 1)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	enc := NewEncoder(params)
	encryptor := NewEncryptor(params, pk, 2)
	ct := encryptor.Encrypt(enc.Encode([]float64{1, 2, 3}, 2, params.Scale))
	valid, _ := ct.MarshalBinary()

	f.Add(valid)
	f.Add(valid[:10])
	f.Add([]byte{})
	f.Add([]byte{0xC1, 0xFF, 0, 0, 0, 0, 0, 0, 0, 0})
	mutated := append([]byte(nil), valid...)
	mutated[1] = 7
	f.Add(mutated)

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadCiphertext(bytes.NewReader(data), params)
		if err != nil {
			return
		}
		// Anything that parses must be structurally sound.
		if got.Degree() < 0 || got.Level() < 1 || got.Level() > params.L {
			t.Fatalf("parsed ciphertext with bad shape: degree %d level %d", got.Degree(), got.Level())
		}
		for _, p := range got.Value {
			if len(p.Coeffs[0]) != params.N() {
				t.Fatal("parsed ciphertext with wrong degree")
			}
		}
		// And must re-serialize cleanly.
		if _, err := got.MarshalBinary(); err != nil {
			t.Fatalf("reserialization failed: %v", err)
		}
	})
}

package ckks

import (
	"bytes"
	"testing"

	"fxhenn/internal/ring"
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

// FuzzReadSwitchingKey does the same for the (much larger) key format.
func FuzzReadSwitchingKey(f *testing.F) {
	params := NewParameters(6, 30, 3, 45)
	kg := NewKeyGenerator(params, 3)
	sk := kg.GenSecretKey()
	rlk := kg.GenRelinearizationKey(sk)
	var buf bytes.Buffer
	if _, err := rlk.SwitchingKey.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	valid := append([]byte(nil), buf.Bytes()...)
	buf.Reset()
	if _, err := rlk.AtLevel(1).WriteTo(&buf); err != nil {
		f.Fatal(err)
	}

	f.Add(valid)
	f.Add(valid[:20])
	f.Add([]byte{0xC4, 0xFF, 0})
	f.Add(buf.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		swk, err := ReadSwitchingKey(bytes.NewReader(data), params)
		if err != nil {
			return
		}
		if len(swk.B) != len(swk.A) || swk.Level() < 1 || swk.Level() > params.L {
			t.Fatal("parsed key with bad digit structure")
		}
		// Every digit's polys hold the digits' q-rows plus the special row.
		for i := range swk.B {
			for _, p := range []*ring.Poly{swk.B[i], swk.A[i]} {
				if p.K() != swk.Level()+1 {
					t.Fatalf("digit %d: %d rows for a level-%d key", i, p.K(), swk.Level())
				}
				for _, row := range p.Coeffs {
					if len(row) != params.N() {
						t.Fatalf("digit %d: row of %d coefficients, want %d", i, len(row), params.N())
					}
				}
			}
		}
	})
}

package mlaas

import (
	"bytes"
	"encoding/binary"
	"testing"

	"fxhenn/internal/hecnn"
)

// FuzzServerRequest hardens the request decode boundary: an arbitrary
// byte stream through Server.Handle must terminate in a typed refusal
// (or, for a valid frame, a served response) — never a panic, which the
// server surfaces as StatusInternal and counts in Stats().Panics. The
// seeds include the retired batched framing's magic, which must keep
// being refused by the count guard, and a genuine request, which gives
// the fuzzer a foothold past the header checks.
func FuzzServerRequest(f *testing.F) {
	fx := newFixture(f)
	u32 := func(words ...uint32) []byte {
		var buf bytes.Buffer
		for _, w := range words {
			var b [4]byte
			binary.LittleEndian.PutUint32(b[:], w)
			buf.Write(b[:])
		}
		return buf.Bytes()
	}
	n := uint32(fx.henet.Layers[0].(*hecnn.ConvPacked).NumPositions())
	cts := fx.client.encryptRequest(randomImage(3))
	var req bytes.Buffer
	if _, err := writeRequest(&req, header{}, cts); err != nil {
		f.Fatal(err)
	}
	valid := req.Bytes()
	firstCT := valid[4 : 4+cts[0].SerializedSize()]

	f.Add([]byte{})
	f.Add([]byte{1, 0})
	f.Add(u32(0))
	f.Add(u32(maxRequestCiphertexts + 1))
	f.Add(u32(1))
	f.Add(u32(n))
	f.Add(u32(retiredBatchMagic))
	f.Add(u32(retiredBatchMagic, 0))
	f.Add(u32(crcMagic))
	f.Add(u32(crcMagic, crcMagic))
	f.Add(u32(crcMagic, retiredBatchMagic))
	f.Add(u32(crcMagic, retiredBatchMagic, n))
	f.Add(u32(retiredBatchMagic, n))
	f.Add(append(u32(n), firstCT...))
	f.Add(valid[:len(valid)/2])
	mutated := append([]byte(nil), valid...)
	mutated[12] ^= 0xFF
	f.Add(mutated)
	f.Add(valid)

	f.Fuzz(func(t *testing.T, data []byte) {
		before := fx.server.Stats().Panics
		handleBuf(fx.server, data)
		if after := fx.server.Stats().Panics; after != before {
			t.Fatalf("request bytes % x reached an evaluation panic", data)
		}
	})
}

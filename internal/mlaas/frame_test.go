package mlaas

// CRC-framing suite: the interop matrix (legacy and FrameCheck clients
// against the one server, which emulates both old and new behavior since
// the legacy path is byte-identical), the corruption-detection contract
// the trailer exists for, and the client-side response-decode fuzzer.

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math"
	"net"
	"testing"
	"time"

	"fxhenn/internal/ckks"
	"fxhenn/internal/faultnet"
)

// TestCRCMagicAboveCount pins the versioning mechanism: both magics must
// read as hostile ciphertext counts on servers that predate them.
func TestCRCMagicAboveCount(t *testing.T) {
	if crcMagic <= maxRequestCiphertexts {
		t.Fatalf("crcMagic %#x not above maxRequestCiphertexts %d", crcMagic, maxRequestCiphertexts)
	}
	if batchMagic <= maxRequestCiphertexts {
		t.Fatalf("batchMagic %#x not above maxRequestCiphertexts %d", batchMagic, maxRequestCiphertexts)
	}
}

// TestCRCInterop runs the client × server framing matrix over pipes:
// both client generations succeed against the CRC-aware server, and the
// legacy exchange stays byte-identical — no trailer follows its response.
func TestCRCInterop(t *testing.T) {
	fx := newFixture(t)
	img := randomImage(81)
	want := fx.pnet.Infer(img)

	for _, tc := range []struct {
		name       string
		frameCheck bool
	}{
		{"legacy-client", false},
		{"crc-client", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cl := NewClient(fx.params, fx.henet, fx.pk, fx.sk, 82)
			cl.FrameCheck = tc.frameCheck
			conn, done := serveOne(t, fx.server)
			got, err := cl.Infer(context.Background(), conn, img)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if math.Abs(got[i]-want[i]) > 1e-2 {
					t.Fatalf("logit %d: %g vs %g", i, got[i], want[i])
				}
			}
			// The server wrote exactly one response frame: after it, the
			// conn must yield EOF — for the legacy client that proves no
			// trailer was appended behind its back.
			conn.(net.Conn).SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
			var extra [1]byte
			if n, err := conn.Read(extra[:]); err != io.EOF {
				t.Fatalf("after response: read %d bytes, err %v; want EOF", n, err)
			}
			conn.Close()
			<-done
		})
	}
}

// TestCRCDoubleMagicRefused: the server consumes exactly one crcMagic
// word; a second one falls through to the count check and is refused as a
// hostile count — the same refusal an old server gives the first magic.
func TestCRCDoubleMagicRefused(t *testing.T) {
	fx := newFixture(t)
	resp := handleBuf(fx.server, append(binary4(crcMagic), binary4(crcMagic)...))
	status, msg := mustReadFailure(t, resp)
	if status != StatusBadRequest {
		t.Fatalf("double-magic status = %s, want bad-request", status)
	}
	if !bytes.Contains([]byte(msg), []byte("outside")) {
		t.Fatalf("double-magic msg %q does not mention the count bound", msg)
	}
}

func binary4(v uint32) []byte {
	b := make([]byte, 4)
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
	return b
}

// mustReadFailure decodes a [status][len][msg] failure frame from buf.
func mustReadFailure(t *testing.T, r io.Reader) (Status, string) {
	t.Helper()
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		t.Fatalf("reading failure: %v", err)
	}
	n := uint32(hdr[1]) | uint32(hdr[2])<<8 | uint32(hdr[3])<<16 | uint32(hdr[4])<<24
	msg := make([]byte, n)
	if _, err := io.ReadFull(r, msg); err != nil {
		t.Fatalf("reading failure message: %v", err)
	}
	return Status(hdr[0]), string(msg)
}

// corruptedExchange runs one inference with the client's receive stream
// corrupted at byte offset off (1-based, counting from the response
// status byte), returning the logits or error.
func corruptedExchange(t *testing.T, frameCheck bool, off int64, nbytes int) ([]float64, []float64, error) {
	t.Helper()
	fx := newFixture(t)
	img := randomImage(83)
	want := fx.pnet.Infer(img)
	cl := NewClient(fx.params, fx.henet, fx.pk, fx.sk, 84)
	cl.FrameCheck = frameCheck
	cl.Timeout = 10 * time.Second

	cliConn, srvConn := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer srvConn.Close()
		fx.server.Handle(srvConn)
	}()
	// Corrupt what the CLIENT reads: the server's stream stays honest, the
	// damage happens on the wire.
	fc := faultnet.New(cliConn, faultnet.Config{Seed: 85, CorruptReadAt: off, CorruptBytes: nbytes})
	got, err := cl.Infer(context.Background(), fc, img)
	fc.Close()
	<-done
	return got, want, err
}

// TestCRCDetectsPayloadCorruption is the whole point of the trailer: the
// same mid-payload bit damage that a legacy client silently decrypts into
// wrong logits surfaces as a typed, retryable ErrFrameCorrupt under
// FrameCheck.
func TestCRCDetectsPayloadCorruption(t *testing.T) {
	// Offset 32 lands inside the first polynomial's coefficient data (1
	// status byte + 10 ciphertext header bytes precede it); 8 corrupted
	// bytes garble one full coefficient, far beyond CKKS noise.
	const off, nbytes = 32, 8

	t.Run("legacy-client-silently-wrong", func(t *testing.T) {
		got, want, err := corruptedExchange(t, false, off, nbytes)
		if err != nil {
			// Structural decode failure is possible depending on which field
			// the bytes land in — but at this offset they land in
			// coefficient data, which has no structure to violate.
			t.Fatalf("legacy client surfaced an error for coefficient damage: %v", err)
		}
		maxDiff := 0.0
		for i := range want {
			if d := math.Abs(got[i] - want[i]); d > maxDiff {
				maxDiff = d
			}
		}
		if maxDiff <= 1e-2 {
			t.Fatalf("corrupted logits still within tolerance (max diff %g) — corruption did not land", maxDiff)
		}
	})

	t.Run("crc-client-typed-error", func(t *testing.T) {
		_, _, err := corruptedExchange(t, true, off, nbytes)
		if !errors.Is(err, ErrFrameCorrupt) {
			t.Fatalf("err = %v, want ErrFrameCorrupt", err)
		}
		if !Retryable(err) {
			t.Fatalf("frame corruption not retryable: %v", err)
		}
	})
}

// TestCRCDetectsTrailerCorruption: damage to the trailer itself (not the
// payload) must also surface as ErrFrameCorrupt, never as success.
func TestCRCDetectsTrailerCorruption(t *testing.T) {
	fx := newFixture(t)
	img := randomImage(86)
	cl := NewClient(fx.params, fx.henet, fx.pk, fx.sk, 87)
	cl.FrameCheck = true

	// First measure an honest exchange to learn the response size, then
	// corrupt inside the final 8 trailer bytes.
	conn, done := serveOne(t, fx.server)
	if _, err := cl.Infer(context.Background(), conn, img); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	<-done
	respLen := cl.BytesReceived

	cl2 := NewClient(fx.params, fx.henet, fx.pk, fx.sk, 87)
	cl2.FrameCheck = true
	cliConn, srvConn := net.Pipe()
	sdone := make(chan struct{})
	go func() {
		defer close(sdone)
		defer srvConn.Close()
		fx.server.Handle(srvConn)
	}()
	fc := faultnet.New(cliConn, faultnet.Config{Seed: 88, CorruptReadAt: respLen - 2, CorruptBytes: 2})
	_, err := cl2.Infer(context.Background(), fc, img)
	fc.Close()
	<-sdone
	if !errors.Is(err, ErrFrameCorrupt) {
		t.Fatalf("err = %v, want ErrFrameCorrupt", err)
	}
}

// TestCRCBatchedInterop: the batched framing composes with the CRC
// trailer — [crcMagic][batchMagic][count]... round-trips with verified
// logits.
func TestCRCBatchedInterop(t *testing.T) {
	fx := newBatchFixture(t, Config{}, 2, 10*time.Millisecond)
	img := randomImage(89)
	want := fx.pnet.Infer(img)
	bc := fx.batchClient(90)
	bc.FrameCheck = true
	conn, done := serveOne(t, fx.server)
	defer func() { conn.Close(); <-done }()
	got, err := bc.Infer(context.Background(), conn, img)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-2 {
			t.Fatalf("logit %d: %g vs %g", i, got[i], want[i])
		}
	}
}

// FuzzClientResponse hardens the client's response decode boundary, every
// framing: arbitrary response bytes must produce a typed error or a valid
// result, never a panic. readResponse touches no client state, so one
// fixture serves every iteration.
func FuzzClientResponse(f *testing.F) {
	fx := newBatchFixture(f, Config{}, 2, time.Millisecond)
	want := fx.bnet.OutputSize()

	// Genuine success frames (one per framing) give the fuzzer a foothold
	// inside the ciphertext decoder.
	cts := fx.client.encryptRequest(randomImage(92))
	packed, err := fx.bnet.PackImage(randomImage(93))
	if err != nil {
		f.Fatal(err)
	}
	bc := fx.batchClient(94)
	bcts := encryptAll(fx.bparams, bc.encoder, bc.encryptor, packed)
	honest := func(h header, cts []*ckks.Ciphertext) []byte {
		var req bytes.Buffer
		if _, err := writeRequest(&req, h, cts); err != nil {
			f.Fatal(err)
		}
		return handleBuf(fx.server, req.Bytes()).Bytes()
	}
	single := honest(header{}, cts)
	batched := honest(header{batch: true}, bcts)

	f.Add([]byte{})
	f.Add([]byte{byte(StatusOK)})
	f.Add([]byte{byte(StatusBusy), 3, 0, 0, 0, 'b', 'a', 'd'})
	f.Add([]byte{byte(StatusBusy), 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add(single)
	f.Add(honest(header{crc: true}, cts))
	f.Add(batched)
	f.Add(honest(header{crc: true, batch: true}, bcts))
	f.Add(single[:len(single)/2])
	flipped := append([]byte(nil), single...)
	flipped[12] ^= 0xA5
	f.Add(flipped)
	f.Add(append([]byte{byte(StatusOK)}, binary4(uint32(fx.bparams.Slots()))...))
	f.Add(append([]byte{byte(StatusOK), 0, 0, 0, 0}, binary4(maxRequestCiphertexts+1)...))
	f.Add(batched[:len(batched)/2])

	f.Fuzz(func(t *testing.T, data []byte) {
		// Any outcome but a panic is acceptable; a structurally valid frame
		// decodes, everything else must surface as a typed error.
		for _, h := range []header{{}, {crc: true}} {
			readResponse(bytes.NewReader(data), fx.params, h, 1) //nolint:errcheck
		}
		for _, h := range []header{{batch: true}, {crc: true, batch: true}} {
			readResponse(bytes.NewReader(data), fx.bparams, h, want) //nolint:errcheck
		}
	})
}

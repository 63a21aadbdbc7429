package mlaas

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"testing"

	"fxhenn/internal/cnn"
)

// handleBuf runs one exchange against in-memory buffers and returns the
// raw response.
func handleBuf(s *Server, req []byte) *bytes.Buffer {
	var resp bytes.Buffer
	s.Handle(rwPair{bytes.NewBuffer(req), &resp})
	return &resp
}

// parseFailure decodes a [status][len][msg] failure response.
func parseFailure(t *testing.T, resp *bytes.Buffer) (Status, string) {
	t.Helper()
	raw := resp.Bytes()
	if len(raw) < 5 {
		t.Fatalf("response too short: % x", raw)
	}
	n := binary.LittleEndian.Uint32(raw[1:5])
	if int(n) != len(raw)-5 {
		t.Fatalf("message length %d != %d remaining bytes", n, len(raw)-5)
	}
	return Status(raw[0]), string(raw[5:])
}

// TestHostileCountRejectedBeforeAllocation is the regression test for the
// dead maxRequestCiphertexts guard: a header advertising a huge count must
// be refused by the bound check (before any allocation or model-shape
// comparison), not by the exact-count comparison.
func TestHostileCountRejectedBeforeAllocation(t *testing.T) {
	fx := newFixture(t)
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(maxRequestCiphertexts+1))
	status, msg := parseFailure(t, handleBuf(fx.server, hdr[:]))
	if status != StatusBadRequest {
		t.Fatalf("status %s, want bad-request", status)
	}
	if !strings.Contains(msg, "outside [1,") {
		t.Fatalf("hostile count hit the wrong guard: %q", msg)
	}
	// Count zero is equally out of bounds.
	binary.LittleEndian.PutUint32(hdr[:], 0)
	if status, msg = parseFailure(t, handleBuf(fx.server, hdr[:])); !strings.Contains(msg, "outside [1,") {
		t.Fatalf("zero count hit the wrong guard: %s %q", status, msg)
	}
}

// retiredBatchMagic is the word ("BTCH") that led the batched request
// framing before the cross-request batched serve path was removed.
const retiredBatchMagic uint32 = 0x42544348

// TestBatchedDisabledServerRejectsMagic: a request in the retired batched
// framing — bare, or behind the CRC frame — is refused with a typed
// bad-request by the hostile-count guard, since the magic reads as a
// ciphertext count above maxRequestCiphertexts.
func TestBatchedDisabledServerRejectsMagic(t *testing.T) {
	fx := newFixture(t)
	for _, words := range [][]uint32{
		{retiredBatchMagic, 64},
		{crcMagic, retiredBatchMagic, 64},
	} {
		var req []byte
		for _, w := range words {
			req = binary.LittleEndian.AppendUint32(req, w)
		}
		st, msg := parseFailure(t, handleBuf(fx.server, req))
		if st != StatusBadRequest || !strings.Contains(msg, "outside [1,") {
			t.Fatalf("% x: status = %v (%q), want bad-count refusal", req, st, msg)
		}
	}
}

// TestTruncatedHeader: fewer than 4 header bytes is a clean bad-request.
func TestTruncatedHeader(t *testing.T) {
	fx := newFixture(t)
	status, msg := parseFailure(t, handleBuf(fx.server, []byte{1, 0}))
	if status != StatusBadRequest || !strings.Contains(msg, "request header") {
		t.Fatalf("got %s %q", status, msg)
	}
}

// TestWrongCiphertextCount: an in-bounds count that does not match the
// model's packing is refused with the expected/got detail.
func TestWrongCiphertextCount(t *testing.T) {
	fx := newFixture(t)
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], 2)
	status, msg := parseFailure(t, handleBuf(fx.server, hdr[:]))
	if status != StatusBadRequest || !strings.Contains(msg, "expected") {
		t.Fatalf("got %s %q", status, msg)
	}
	if fx.server.Served() != 0 {
		t.Fatal("failed request counted as served")
	}
}

// TestTruncatedCiphertextMidStream: a correct header followed by half a
// ciphertext is rejected without hanging or panicking.
func TestTruncatedCiphertextMidStream(t *testing.T) {
	fx := newFixture(t)
	var req bytes.Buffer
	packed := fx.client.net.PackInput(randomImage(3))
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(packed)))
	req.Write(hdr[:])
	ct := fx.client.encryptor.Encrypt(fx.client.encoder.Encode(packed[0], fx.params.MaxLevel(), fx.params.Scale))
	var ctBuf bytes.Buffer
	ct.WriteTo(&ctBuf) //nolint:errcheck
	req.Write(ctBuf.Bytes()[:ctBuf.Len()/2])

	status, msg := parseFailure(t, handleBuf(fx.server, req.Bytes()))
	if status != StatusBadRequest || !strings.Contains(msg, "ciphertext 0") {
		t.Fatalf("got %s %q", status, msg)
	}
}

// TestWrongLevelRejectedBeforeEvaluation: ciphertexts encrypted below the
// protocol level are refused by validation, not by a panic (or noise
// blowup) deep in the rescale schedule.
func TestWrongLevelRejectedBeforeEvaluation(t *testing.T) {
	fx := newFixture(t)
	packed := fx.client.net.PackInput(randomImage(4))
	var req bytes.Buffer
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(packed)))
	req.Write(hdr[:])
	low := fx.params.MaxLevel() - 2
	for _, v := range packed {
		ct := fx.client.encryptor.Encrypt(fx.client.encoder.Encode(v, low, fx.params.Scale))
		ct.WriteTo(&req) //nolint:errcheck
	}
	status, msg := parseFailure(t, handleBuf(fx.server, req.Bytes()))
	if status != StatusBadRequest || !strings.Contains(msg, "level") {
		t.Fatalf("got %s %q", status, msg)
	}
}

// TestClientDisconnectDuringResponseWrite: the client vanishing after
// sending its request must not kill or wedge the server.
func TestClientDisconnectDuringResponseWrite(t *testing.T) {
	fx := newFixture(t)
	cliConn, srvConn := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer srvConn.Close()
		fx.server.Handle(srvConn)
	}()

	img := randomImage(5)
	packed := fx.client.net.PackInput(img)
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(packed)))
	if _, err := cliConn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	for _, v := range packed {
		ct := fx.client.encryptor.Encrypt(fx.client.encoder.Encode(v, fx.params.MaxLevel(), fx.params.Scale))
		if _, err := ct.WriteTo(cliConn); err != nil {
			t.Fatal(err)
		}
	}
	cliConn.Close() // gone before reading a single response byte
	<-done          // the handler must return promptly

	// The server is still healthy: a normal exchange succeeds.
	cliConn2, srvConn2 := net.Pipe()
	go func() {
		defer srvConn2.Close()
		fx.server.Handle(srvConn2)
	}()
	if _, err := fx.client.Infer(context.Background(), cliConn2, img); err != nil {
		t.Fatalf("server unhealthy after client disconnect: %v", err)
	}
	cliConn2.Close()
}

// TestLongErrorMessageTruncatedOnWire: the server caps err.Error() at the
// same 64 KiB bound the client enforces, so a huge message round-trips as
// a readable (truncated) StatusError instead of desynchronizing the
// stream or being dropped client-side.
func TestLongErrorMessageTruncatedOnWire(t *testing.T) {
	fx := newFixture(t)

	// Server side: WriteFailure truncates at the cap.
	var wire bytes.Buffer
	WriteFailure(&wire, StatusInternal, strings.Repeat("x", 1<<20))
	if wire.Len() != 5+maxErrorMessageBytes {
		t.Fatalf("wire length %d, want %d", wire.Len(), 5+maxErrorMessageBytes)
	}
	status, msg := parseFailure(t, &wire)
	if status != StatusInternal || len(msg) != maxErrorMessageBytes {
		t.Fatalf("truncation roundtrip: %s, %d bytes", status, len(msg))
	}

	// Client side: the truncated message parses into a StatusError.
	var wire2 bytes.Buffer
	WriteFailure(&wire2, StatusInternal, strings.Repeat("x", 1<<20))
	err := readFailureAsClient(t, fx, wire2.Bytes())
	var truncated *StatusError
	if !errors.As(err, &truncated) || truncated.Code != StatusInternal || len(truncated.Msg) != maxErrorMessageBytes {
		t.Fatalf("client-side parse of truncated message: %v", err)
	}

	// And the client refuses a length beyond the cap outright.
	var over bytes.Buffer
	over.WriteByte(byte(StatusInternal))
	var lenBuf [4]byte
	binary.LittleEndian.PutUint32(lenBuf[:], maxErrorMessageBytes+1)
	over.Write(lenBuf[:])
	got := readFailureAsClient(t, fx, over.Bytes())
	var se *StatusError
	if !errors.As(got, &se) || !strings.Contains(se.Msg, "wire cap") {
		t.Fatalf("oversized message not refused: %v", got)
	}
}

// readFailureAsClient runs client.Infer against a scripted responder that
// consumes the request and replies with the given raw bytes.
func readFailureAsClient(t *testing.T, fx *fixture, rawResp []byte) error {
	t.Helper()
	cliConn, srvConn := net.Pipe()
	go func() {
		defer srvConn.Close()
		var hdr [4]byte
		if _, err := io.ReadFull(srvConn, hdr[:]); err != nil {
			return
		}
		count := binary.LittleEndian.Uint32(hdr[:])
		for i := uint32(0); i < count; i++ {
			if _, err := readOneCiphertextRaw(srvConn); err != nil {
				return
			}
		}
		srvConn.Write(rawResp) //nolint:errcheck
	}()
	defer cliConn.Close()
	_, err := fx.client.Infer(context.Background(), cliConn, randomImage(6))
	return err
}

// readOneCiphertextRaw consumes one serialized ciphertext without
// deserializing it (the scripted peers don't hold parameters).
func readOneCiphertextRaw(r io.Reader) (int, error) {
	var hdr [10]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, err
	}
	total := 10
	parts := int(hdr[1])
	for p := 0; p < parts; p++ {
		var ph [8]byte
		if _, err := io.ReadFull(r, ph[:]); err != nil {
			return total, err
		}
		total += 8
		k := int(binary.LittleEndian.Uint32(ph[0:]))
		n := int(binary.LittleEndian.Uint32(ph[4:]))
		if _, err := io.CopyN(io.Discard, r, int64(8*k*n)); err != nil {
			return total, err
		}
		total += 8 * k * n
	}
	return total, nil
}

// TestConcurrentClients runs several full TCP exchanges in parallel (this
// test is the reason `-race` is part of the verify flow: it exercises the
// semaphore, the stats mutex, and per-connection goroutines together).
func TestConcurrentClients(t *testing.T) {
	fx := newFixture(t)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go fx.server.Serve(l) //nolint:errcheck

	const n = 4
	errs := make(chan error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			// One Client per goroutine: a Client is a single caller's
			// stateful endpoint, not a connection pool.
			cl := NewClient(fx.params, fx.henet, fx.pk, fx.sk, 100+seed)
			conn, err := net.Dial("tcp", l.Addr().String())
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			img := randomImage(seed)
			got, err := cl.Infer(context.Background(), conn, img)
			if err != nil {
				errs <- err
				return
			}
			if cnn.Argmax(got) != cnn.Argmax(fx.pnet.Infer(img)) {
				errs <- errors.New("argmax mismatch under concurrency")
				return
			}
			errs <- nil
		}(int64(10 + i))
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if fx.server.Served() != n {
		t.Fatalf("served = %d, want %d", fx.server.Served(), n)
	}
}

package mlaas

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash/crc32"
	"io"
	"testing"
	"testing/iotest"

	"fxhenn/internal/telemetry"
)

// TestHeaderGoldenBytes pins the request header bytes of every
// combination of the optional frames. The hex is what the clients wrote
// before the codec was consolidated; a row that changes moves bytes that
// old servers, the gateway's replay and recorded digests depend on.
// Encoding then parsing must also give back the same header.
func TestHeaderGoldenBytes(t *testing.T) {
	tc := telemetry.SpanContext{
		Trace: telemetry.TraceID{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16},
		Span:  telemetry.SpanID{0xa1, 0xa2, 0xa3, 0xa4, 0xa5, 0xa6, 0xa7, 0xa8},
	}
	route := RouteHeader{Tenant: "alice", Generation: 7}
	const (
		trc = "314352540102030405060708090a0b0c0d0e0f10a1a2a3a4a5a6a7a8"
		rte = "31544e540500616c6963650700000000000000"
		crc = "31435243"
		bat = "48435442"
	)
	for _, row := range []struct {
		trace, route, crc, batch bool
		hex                      string
	}{
		{false, false, false, false, "09000000"},
		{true, false, false, false, trc + "09000000"},
		{false, true, false, false, rte + "09000000"},
		{true, true, false, false, trc + rte + "09000000"},
		{false, false, true, false, crc + "09000000"},
		{true, false, true, false, trc + crc + "09000000"},
		{false, true, true, false, rte + crc + "09000000"},
		{true, true, true, false, trc + rte + crc + "09000000"},
		{false, false, false, true, bat + "40000000"},
		{true, false, false, true, trc + bat + "40000000"},
		{false, true, false, true, rte + bat + "40000000"},
		{true, true, false, true, trc + rte + bat + "40000000"},
		{false, false, true, true, crc + bat + "40000000"},
		{true, false, true, true, trc + crc + bat + "40000000"},
		{false, true, true, true, rte + crc + bat + "40000000"},
		{true, true, true, true, trc + rte + crc + bat + "40000000"},
	} {
		h := header{crc: row.crc, batch: row.batch, count: 9}
		if row.trace {
			h.trace = tc
		}
		if row.route {
			h.route = route
		}
		if row.batch {
			h.count = 64
		}
		got, err := h.appendTo(nil)
		if err != nil {
			t.Fatal(err)
		}
		if hex.EncodeToString(got) != row.hex {
			t.Errorf("%+v encodes to %x, want %s", h, got, row.hex)
		}
		parsed, err := readHeader(bytes.NewReader(got), func(*header) (bool, error) { return true, nil })
		if err != nil || parsed != h {
			t.Errorf("%+v parses back as %+v (%v)", h, parsed, err)
		}
	}
}

// failWriter is a client that has gone away.
type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("client gone") }

// TestRelayResponseVerdicts pins the gateway relay's judgement of a
// shard, byte-at-a-time and in bulk: what it forwards, and when it
// blames the shard.
func TestRelayResponseVerdicts(t *testing.T) {
	payload := append([]byte{byte(StatusOK)}, bytes.Repeat([]byte{0x5a, 0xa5, 0x3c}, 3000)...)
	le := binary.LittleEndian
	ok := le.AppendUint32(le.AppendUint32(append([]byte(nil), payload...), crcMagic), crc32.ChecksumIEEE(payload))
	damaged := append([]byte(nil), ok...)
	damaged[40] ^= 0xff
	refusal := []byte{byte(StatusBusy), 2, 0, 0, 0, 'n', 'o'}
	draining := []byte{byte(StatusShuttingDown), 2, 0, 0, 0, 'n', 'o'}

	for _, tc := range []struct {
		name    string
		resp    []byte
		crc     bool
		corrupt bool // the verdict must be ErrFrameCorrupt, and the trailer withheld
	}{
		{"plain", payload, false, false},
		{"crc-ok", ok, true, false},
		{"crc-damaged", damaged, true, true},
		{"crc-missing-trailer", payload, true, true},
		{"refusal-carries-no-trailer", refusal, true, false},
	} {
		for _, oneByte := range []bool{false, true} {
			var src io.Reader = bytes.NewReader(tc.resp)
			if oneByte {
				src = iotest.OneByteReader(src)
			}
			var got bytes.Buffer
			err := RelayResponse(&got, src, tc.crc)
			want := tc.resp
			if tc.corrupt {
				if !errors.Is(err, ErrFrameCorrupt) {
					t.Fatalf("%s (one byte %v): verdict %v, want ErrFrameCorrupt", tc.name, oneByte, err)
				}
				want = tc.resp[:len(tc.resp)-8]
			} else if err != nil {
				t.Fatalf("%s (one byte %v): verdict %v, want nil", tc.name, oneByte, err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("%s (one byte %v): forwarded %d bytes, want %d", tc.name, oneByte, got.Len(), len(want))
			}
		}
	}

	// A draining shard's refusal reaches the client whole, but the shard
	// is blamed so the client's retry goes elsewhere.
	var got bytes.Buffer
	if err := RelayResponse(&got, bytes.NewReader(draining), true); err == nil || !bytes.Equal(got.Bytes(), draining) {
		t.Fatalf("draining shard: verdict %v, forwarded %x; want an error and the refusal", err, got.Bytes())
	}
	if err := RelayResponse(io.Discard, bytes.NewReader(nil), false); err == nil {
		t.Fatal("a shard that closed before the status byte was not blamed")
	}
	torn := io.MultiReader(bytes.NewReader(payload[:100]), iotest.ErrReader(errors.New("connection reset")))
	if err := RelayResponse(io.Discard, torn, false); err == nil {
		t.Fatal("a shard read error mid-response was not blamed")
	}
	// A client that has gone is not the shard's fault: the relay drains
	// the shard to EOF and still checks the trailer.
	src := bytes.NewReader(ok)
	if err := RelayResponse(failWriter{}, src, true); err != nil || src.Len() != 0 {
		t.Fatalf("client gone: verdict %v with %d shard bytes undrained, want nil and 0", err, src.Len())
	}
	if err := RelayResponse(failWriter{}, bytes.NewReader(damaged), true); !errors.Is(err, ErrFrameCorrupt) {
		t.Fatalf("client gone, damaged frame: verdict %v, want ErrFrameCorrupt", err)
	}
}

// TestRelayResponseZeroAlloc: the relay allocates nothing per exchange
// that asked for no CRC trailer — its buffer comes from a pool.
func TestRelayResponseZeroAlloc(t *testing.T) {
	resp := append([]byte{byte(StatusOK)}, make([]byte, 100<<10)...)
	r := bytes.NewReader(resp)
	allocs := testing.AllocsPerRun(100, func() {
		r.Reset(resp)
		if err := RelayResponse(io.Discard, r, false); err != nil {
			t.Error(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("relay allocates %.1f per exchange, want 0", allocs)
	}
}

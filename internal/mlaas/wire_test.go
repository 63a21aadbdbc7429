package mlaas

import (
	"bytes"
	"encoding/hex"
	"testing"

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

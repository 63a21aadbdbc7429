package mlaas

import (
	"bytes"
	"encoding/binary"
	"testing"

	"fxhenn/internal/telemetry"
)

// FuzzRouteHeader hardens the gateway's peek boundary: PeekRoute runs on
// every byte stream a client (or attacker) can open against the gateway,
// before any authentication or admission, so it must never panic, and the
// bytes it reports consumed must be exactly the prefix it read — the
// gateway replays them verbatim to the shard, so any discrepancy would
// corrupt the proxied stream. Frames that round-trip through the request
// writer must come back intact with a bounded tenant name, and the CRC
// flag must say exactly whether the last word consumed is crcMagic.
func FuzzRouteHeader(f *testing.F) {
	u32 := func(w uint32) []byte {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], w)
		return b[:]
	}
	// frames encodes h through the request writer, dropping the trailing
	// count word: the trace and route frames alone.
	frames := func(h header) []byte {
		b, err := h.appendTo(nil)
		if err != nil {
			f.Fatal(err)
		}
		return b[:len(b)-4]
	}
	route := func(h RouteHeader) []byte { return frames(header{route: h}) }
	trace := func() []byte {
		return frames(header{trace: telemetry.SpanContext{Trace: telemetry.TraceID{7}, Span: telemetry.SpanID{9}}})
	}

	f.Add([]byte{})
	f.Add([]byte{0x31})
	f.Add(u32(1))
	f.Add(u32(routeMagic))
	f.Add(append(u32(routeMagic), 0, 0))
	f.Add(append(u32(routeMagic), 0xFF, 0xFF))
	f.Add(route(RouteHeader{Tenant: "alice"}))
	f.Add(route(RouteHeader{Tenant: "alice", Generation: 3}))
	f.Add(append(route(RouteHeader{Tenant: "bob", Generation: 1}), u32(crcMagic)...))
	f.Add(append(trace(), route(RouteHeader{Tenant: "carol", Generation: 2})...))
	f.Add(append(trace(), u32(retiredBatchMagic)...))
	f.Add(u32(crcMagic))
	f.Add(u32(retiredBatchMagic))
	f.Add(frames(header{route: RouteHeader{Tenant: "alice", Generation: 3}, crc: true}))
	f.Add(frames(header{trace: telemetry.SpanContext{Trace: telemetry.TraceID{7}, Span: telemetry.SpanID{9}}, crc: true}))
	f.Add(append(frames(header{crc: true}), u32(retiredBatchMagic)...))
	truncated := route(RouteHeader{Tenant: "alice", Generation: 3})
	f.Add(truncated[:len(truncated)-4])

	f.Fuzz(func(t *testing.T, data []byte) {
		hdr, consumed, crc, err := PeekRoute(bytes.NewReader(data))
		if !bytes.Equal(consumed, data[:len(consumed)]) {
			t.Fatalf("consumed % x is not a prefix of input % x", consumed, data)
		}
		if err != nil {
			return
		}
		last := binary.LittleEndian.Uint32(consumed[len(consumed)-4:])
		if crc != (last == crcMagic) {
			t.Fatalf("crc flag %v, last consumed word 0x%08x", crc, last)
		}
		if hdr.IsZero() {
			return
		}
		if n := len(hdr.Tenant); n < 1 || n > maxRouteTenantBytes {
			t.Fatalf("accepted tenant name of %d bytes outside [1,%d]", n, maxRouteTenantBytes)
		}
		// A peeked frame must re-encode to the exact bytes the gateway
		// replays: splice(consumed, rest) == original stream. The word
		// after the route frame re-encodes as the CRC frame or, failing
		// that, as the count.
		prefixLen := len(consumed) - (4 + 2 + len(hdr.Tenant) + 8) - 4
		h := header{route: hdr, crc: crc, count: last}
		re, err := h.appendTo(append([]byte(nil), consumed[:prefixLen]...))
		if err != nil {
			t.Fatalf("re-encoding peeked header: %v", err)
		}
		if crc {
			re = re[:len(re)-4]
		}
		if !bytes.Equal(re, consumed) {
			t.Fatalf("header % +v does not round-trip: % x vs % x", hdr, re, consumed)
		}
	})
}

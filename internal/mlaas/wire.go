package mlaas

// The wire format. This file is its one statement and its one codec:
// clients, the server and the gateway read and write requests and
// responses only through header, writeRequest, readHeader, PeekRoute,
// encodeResponse, readResponse, RelayResponse and WriteFailure. All
// integers are little-endian.
//
// A request is a header, then the ciphertexts:
//
//	[traceMagic, trace ID(16), parent span ID(8)]        client trace context
//	[routeMagic, u16 len, tenant name, u64 generation]   tenant routing frame
//	[crcMagic]                                           CRC-framed response wanted
//	u32 count, then count serialized ciphertexts
//
// Each bracketed frame is optional, appears at most once, and keeps this
// order. Every magic number is above maxRequestCiphertexts, so a server
// that predates a frame reads its magic as a hostile ciphertext count and
// refuses the request with a typed bad-request instead of misparsing it —
// the negotiation needs no version field. The retired batched framing's
// word, "BTCH" (0x42544348), is refused the same way. A client that sets
// no frame writes the legacy bytes. The ciphertexts are the image's
// packed ciphertexts.
//
// A response is a status byte (see Status). StatusOK is followed by one
// result ciphertext. When the request carried crcMagic, the success
// response ends with [crcMagic][IEEE CRC32 of every response byte from
// the status byte on]. Every other status is followed by a
// u32-length message capped at maxErrorMessageBytes, and never by a
// trailer: some refusals (drain, admission) are written before the server
// has read the header, so it cannot know whether the peer asked for one.
// A failure carries no logits, so a flipped bit there costs an error
// string at worst; corrupt logits silently decrypted into wrong answers
// are the hazard the trailer closes.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"sync"

	"fxhenn/internal/ckks"
	"fxhenn/internal/registry"
	"fxhenn/internal/telemetry"
)

// The magic numbers of the optional request frames, spelled as the
// constants read; the wire carries them little-endian ("1TNT" for
// routeMagic).
const (
	traceMagic uint32 = 0x54524331 // "TRC1"
	routeMagic uint32 = 0x544E5431 // "TNT1"
	crcMagic   uint32 = 0x43524331 // "CRC1"; also leads the response trailer
)

const (
	// maxRequestCiphertexts bounds a request so a malicious client cannot
	// force unbounded allocation.
	maxRequestCiphertexts = 4096
	// maxErrorMessageBytes caps the failure message in both directions:
	// the server truncates before writing, the client refuses to read more.
	maxErrorMessageBytes = 64 << 10
	// traceBodyLen is the trace context after traceMagic.
	traceBodyLen = 24
	// maxRouteTenantBytes matches the registry's own name cap, so every
	// registrable tenant is routable.
	maxRouteTenantBytes = registry.MaxNameBytes
)

// RouteHeader names the tenant a request belongs to. Generation, when
// non-zero, pins the registry generation the client's key material
// derives from: a server whose registry has moved on (key rotation,
// model update) refuses the request with a typed bad-request instead of
// evaluating under mismatched keys and returning undecryptable logits.
type RouteHeader struct {
	Tenant     string
	Generation uint64
}

// IsZero reports whether the header routes nowhere (the server's
// default runtime).
func (h RouteHeader) IsZero() bool { return h.Tenant == "" }

// header is everything a request carries ahead of its ciphertexts.
type header struct {
	trace telemetry.SpanContext // zero: no trace frame
	route RouteHeader           // zero: no route frame
	crc   bool                  // the success response carries a CRC32 trailer
	count uint32                // ciphertexts that follow
}

// appendTo appends h's wire form to b.
func (h header) appendTo(b []byte) ([]byte, error) {
	le := binary.LittleEndian
	if !h.trace.IsZero() {
		b = le.AppendUint32(b, traceMagic)
		b = append(b, h.trace.Trace[:]...)
		b = append(b, h.trace.Span[:]...)
	}
	if !h.route.IsZero() {
		if len(h.route.Tenant) > maxRouteTenantBytes {
			return b, fmt.Errorf("mlaas: tenant name %d bytes exceeds the %d wire cap", len(h.route.Tenant), maxRouteTenantBytes)
		}
		b = le.AppendUint32(b, routeMagic)
		b = le.AppendUint16(b, uint16(len(h.route.Tenant)))
		b = append(b, h.route.Tenant...)
		b = le.AppendUint64(b, h.route.Generation)
	}
	if h.crc {
		b = le.AppendUint32(b, crcMagic)
	}
	return le.AppendUint32(b, h.count), nil
}

// writeRequest streams one request — h with its count set from cts, then
// the ciphertexts — and returns the bytes written.
func writeRequest(w io.Writer, h header, cts []*ckks.Ciphertext) (int64, error) {
	h.count = uint32(len(cts))
	buf, err := h.appendTo(nil)
	if err != nil {
		return 0, err
	}
	m, err := w.Write(buf)
	n := int64(m)
	var row []byte // one row's bytes, shared by every ciphertext
	for i := 0; err == nil && i < len(cts); i++ {
		var mm int64
		mm, err = cts[i].WriteToBuf(w, &row)
		n += mm
	}
	return n, err
}

// readHeader parses a request header. Once the routing decision is known
// — after the route frame, or after the first word that is not one — it
// calls resolve, which selects the serving runtime; an error from resolve
// ends the parse with that error. A nil resolve ends the parse
// successfully once the CRC flag is known, which is how PeekRoute reads
// no further than routing and the relay's trailer check require. The
// count is checked against maxRequestCiphertexts before the caller
// allocates anything.
func readHeader(r io.Reader, resolve func(*header) error) (h header, err error) {
	word, err := readWord(r)
	if err == nil && word == traceMagic {
		var tb [traceBodyLen]byte
		if _, err := io.ReadFull(r, tb[:]); err != nil {
			return h, fmt.Errorf("reading trace context: %w", err)
		}
		copy(h.trace.Trace[:], tb[:16])
		copy(h.trace.Span[:], tb[16:])
		word, err = readWord(r)
	}
	if err != nil {
		return h, fmt.Errorf("reading request header: %w", err)
	}
	routed := word == routeMagic
	if routed {
		if h.route, err = readRouteBody(r); err != nil {
			return h, fmt.Errorf("reading route frame: %w", err)
		}
	}
	if resolve != nil {
		if err = resolve(&h); err != nil {
			return h, err
		}
	}
	if routed {
		word, err = readWord(r)
	}
	if err != nil {
		return h, fmt.Errorf("reading request header: %w", err)
	}
	h.crc = word == crcMagic
	if resolve == nil {
		return h, nil
	}
	if h.crc {
		if word, err = readWord(r); err != nil {
			return h, fmt.Errorf("reading request header: %w", err)
		}
	}
	h.count = word
	if word < 1 || word > maxRequestCiphertexts {
		return h, fmt.Errorf("request ciphertext count %d outside [1,%d]", word, maxRequestCiphertexts)
	}
	return h, nil
}

func readWord(r io.Reader) (uint32, error) {
	var b [4]byte
	_, err := io.ReadFull(r, b[:])
	return binary.LittleEndian.Uint32(b[:]), err
}

// readRouteBody consumes the route frame after its magic.
func readRouteBody(r io.Reader) (RouteHeader, error) {
	var lenBuf [2]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return RouteHeader{}, fmt.Errorf("reading tenant length: %w", err)
	}
	n := int(binary.LittleEndian.Uint16(lenBuf[:]))
	if n < 1 || n > maxRouteTenantBytes {
		return RouteHeader{}, fmt.Errorf("tenant name length %d outside [1,%d]", n, maxRouteTenantBytes)
	}
	body := make([]byte, n+8)
	if _, err := io.ReadFull(r, body); err != nil {
		return RouteHeader{}, fmt.Errorf("reading route body: %w", err)
	}
	return RouteHeader{
		Tenant:     string(body[:n]),
		Generation: binary.LittleEndian.Uint64(body[n:]),
	}, nil
}

// PeekRoute reads the optional trace and route frames of one request and
// returns the route header (zero when the request carries none), the raw
// bytes consumed — which the caller must replay ahead of the remaining
// stream when proxying — and whether the request asked for a CRC-framed
// response. It consumes exactly one word past the route frame, or past
// the trace frame when the request is unrouted: the word that is either
// crcMagic or the next frame.
func PeekRoute(r io.Reader) (hdr RouteHeader, consumed []byte, crc bool, err error) {
	var buf bytes.Buffer
	h, err := readHeader(io.TeeReader(r, &buf), nil)
	return h.route, buf.Bytes(), h.crc, err
}

// relayBufs pools RelayResponse's copy buffers.
var relayBufs = sync.Pool{New: func() any { return new([32 << 10]byte) }}

// RelayResponse copies one response from shard to client without parsing
// a ciphertext, and judges the shard by what it sent: nil when the shard
// sent a status byte other than StatusShuttingDown and then closed
// cleanly — and, when the request asked for a CRC-framed response (crc)
// and the status is StatusOK, ended it in a matching [crcMagic][CRC32]
// trailer. A draining shard still answers, but only to refuse: it counts
// as failed so its breaker opens and the client's retry (the status is
// Retryable) lands on another shard. On the trailer path the
// last 8 bytes are held back and released only if they match, so a
// client never receives a trailer that vouches for damaged bytes; it
// sees a truncated frame instead. A client that stops accepting bytes is
// not the shard's fault: the relay stops writing and drains the shard to
// EOF for its verdict. Exported for the gateway.
func RelayResponse(client io.Writer, shard io.Reader, crc bool) error {
	bp := relayBufs.Get().(*[32 << 10]byte)
	defer relayBufs.Put(bp)
	buf := bp[:]
	var (
		total   int64
		held    int // bytes at buf[:held] awaiting the trailer check
		status  Status
		trailer bool // crc requested and the status is OK
		sum     uint32
		werr    error
	)
	for {
		n, rerr := shard.Read(buf[held:])
		if total == 0 && n > 0 {
			status = Status(buf[0])
			trailer = crc && status == StatusOK
		}
		total += int64(n)
		end, keep := held+n, 0
		if trailer {
			keep = min(end, 8)
			sum = crc32.Update(sum, crc32.IEEETable, buf[:end-keep])
		}
		if werr == nil && end > keep {
			_, werr = client.Write(buf[:end-keep])
		}
		held = copy(buf, buf[end-keep:end])
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return fmt.Errorf("reading shard response: %w", rerr)
		}
	}
	if total == 0 {
		return errors.New("shard closed before the status byte")
	}
	if status == StatusShuttingDown {
		return errors.New("shard is shutting down")
	}
	if trailer {
		if err := checkTrailer(buf[:held], sum); err != nil {
			return err
		}
		if werr == nil {
			client.Write(buf[:held]) //nolint:errcheck // the verdict is the shard's, not the client's
		}
	}
	return nil
}

// encodeResponse serializes the success response carrying ct to a
// request with header h into one buffer of exactly its wire size.
func encodeResponse(h header, ct *ckks.Ciphertext) []byte {
	size := 1 + ct.SerializedSize()
	if h.crc {
		size += 8
	}
	buf := bytes.NewBuffer(append(make([]byte, 0, size), byte(StatusOK)))
	ct.WriteTo(buf) //nolint:errcheck // bytes.Buffer never fails
	b := buf.Bytes()
	if h.crc {
		le := binary.LittleEndian
		b = le.AppendUint32(le.AppendUint32(b, crcMagic), crc32.ChecksumIEEE(b))
	}
	return b
}

// readResponse reads the response to a request with header h: one
// result ciphertext under params. A failure status comes back as
// *StatusError; under h.crc a structural decode failure or a trailer
// mismatch is ErrFrameCorrupt. Failures after the status byte are
// *TransportError with Partial set. recv counts the bytes read either
// way.
func readResponse(r io.Reader, params ckks.Parameters, h header) (ct *ckks.Ciphertext, recv int64, err error) {
	src := r
	var cr *crcReader
	if h.crc {
		cr = &crcReader{r: r, h: crc32.NewIEEE()}
		src = cr
	}
	var status [1]byte
	if _, err := io.ReadFull(src, status[:]); err != nil {
		return nil, 0, &TransportError{Err: err}
	}
	recv = 1
	partial := func(err error) (*ckks.Ciphertext, int64, error) {
		return nil, recv, &TransportError{Partial: true, Err: err}
	}
	if code := Status(status[0]); code != StatusOK {
		var lenBuf [4]byte
		if _, err := io.ReadFull(src, lenBuf[:]); err != nil {
			return partial(err)
		}
		recv += 4
		msgLen := binary.LittleEndian.Uint32(lenBuf[:])
		if msgLen > maxErrorMessageBytes {
			return nil, recv, &StatusError{Code: code, Msg: "(error message exceeds wire cap)"}
		}
		msg := make([]byte, msgLen)
		if _, err := io.ReadFull(src, msg); err != nil {
			return partial(err)
		}
		recv += int64(msgLen)
		return nil, recv, &StatusError{Code: code, Msg: string(msg)}
	}
	var row []byte // one row's bytes, shared by the ciphertext's rows
	ct, err = ckks.ReadCiphertextBuf(src, params, &row)
	if err != nil {
		// Under CRC framing a structural decode failure is corruption
		// evidence: an honest server produces well-formed frames.
		if h.crc && errors.Is(err, ckks.ErrMalformed) {
			err = errFrameCorruptf("%v", err)
		}
		return partial(err)
	}
	recv += int64(ct.SerializedSize())
	if h.crc {
		if err := readTrailer(r, cr.h.Sum32()); err != nil {
			return partial(err)
		}
		recv += 8
	}
	return ct, recv, nil
}

// WriteFailure writes a typed failure response: the status byte, then the
// uint32-length-delimited message, truncated to the wire cap. Exported for
// the gateway, which refuses a request in the protocol's own vocabulary
// when no shard is reachable. Write errors are ignored: the peer may
// already be gone.
func WriteFailure(w io.Writer, status Status, msg string) {
	if len(msg) > maxErrorMessageBytes {
		msg = msg[:maxErrorMessageBytes]
	}
	b := binary.LittleEndian.AppendUint32([]byte{byte(status)}, uint32(len(msg)))
	w.Write(append(b, msg...)) //nolint:errcheck
}

// ErrFrameCorrupt marks a response whose CRC32 trailer did not match the
// received bytes — or, on a CRC-framed exchange, a response whose payload
// failed structural decoding. It is always wrapped in a *TransportError;
// corruption is a property of one connection's traffic, so the request is
// safe to retry on a fresh connection.
var ErrFrameCorrupt = errors.New("mlaas: response frame corrupt (crc mismatch)")

// errFrameCorruptf wraps ErrFrameCorrupt with detail, keeping errors.Is
// working for callers that classify corruption.
func errFrameCorruptf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrFrameCorrupt}, args...)...)
}

// crcReader accumulates an IEEE CRC32 over everything read through it.
type crcReader struct {
	r io.Reader
	h hash.Hash32
}

func (cr *crcReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.h.Write(p[:n]) //nolint:errcheck // hash.Hash never errors
	return n, err
}

// readTrailer consumes the 8-byte trailer from r and checks it against
// sum, the CRC of the payload read before it.
func readTrailer(r io.Reader, sum uint32) error {
	var tr [8]byte
	if _, err := io.ReadFull(r, tr[:]); err != nil {
		return errFrameCorruptf("missing crc trailer: %v", err)
	}
	return checkTrailer(tr[:], sum)
}

// checkTrailer checks tr against sum; a short tr is a missing trailer.
func checkTrailer(tr []byte, sum uint32) error {
	if len(tr) < 8 {
		return errFrameCorruptf("missing crc trailer: %d bytes", len(tr))
	}
	if m := binary.LittleEndian.Uint32(tr[:4]); m != crcMagic {
		return errFrameCorruptf("bad trailer magic 0x%08x", m)
	}
	if got := binary.LittleEndian.Uint32(tr[4:]); got != sum {
		return errFrameCorruptf("crc 0x%08x, computed 0x%08x", got, sum)
	}
	return nil
}

package mlaas

// End-to-end tracing suite: the wire framing (byte-identical when off,
// forward-compat magic when on), batch-flush follow-from linkage,
// exemplar coherence, the client retry metric, and the zero-allocation
// guarantee of the disabled path. Trace stitching across a retried
// exchange through the gateway is pinned in internal/gateway.

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"fxhenn/internal/telemetry"
)

func newTestRecorder() *telemetry.FlightRecorder {
	return telemetry.NewFlightRecorder(telemetry.FlightConfig{SampleRate: 1})
}

// TestTraceMagicAboveCount pins the versioning mechanism, as the CRC and
// batch magics are pinned: the trace magic must read as a hostile
// ciphertext count on servers that predate it.
func TestTraceMagicAboveCount(t *testing.T) {
	if traceMagic <= maxRequestCiphertexts {
		t.Fatalf("traceMagic %#x not above maxRequestCiphertexts %d", traceMagic, maxRequestCiphertexts)
	}
}

// TestUntracedWireBytesIdentical: a client without a flight recorder must
// produce requests byte-identical to the pre-tracing framing — the
// digest that keeps old servers working. A traced request is exactly the
// legacy bytes behind the 28-byte trace prefix.
func TestUntracedWireBytesIdentical(t *testing.T) {
	fx := newFixture(t)
	cts := fx.client.encryptRequest(randomImage(7))

	// Legacy framing, assembled by hand: [count][cts...].
	var want bytes.Buffer
	var cnt [4]byte
	binary.LittleEndian.PutUint32(cnt[:], uint32(len(cts)))
	want.Write(cnt[:])
	for _, ct := range cts {
		if _, err := ct.WriteTo(&want); err != nil {
			t.Fatal(err)
		}
	}

	var got bytes.Buffer
	if _, err := writeRequest(&got, header{}, cts); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("untraced request differs from legacy framing")
	}

	// CRC framing: [crcMagic][count][cts...], still no trace bytes.
	var wantCRC bytes.Buffer
	binary.LittleEndian.PutUint32(cnt[:], crcMagic)
	wantCRC.Write(cnt[:])
	wantCRC.Write(want.Bytes())
	var gotCRC bytes.Buffer
	if _, err := writeRequest(&gotCRC, header{crc: true}, cts); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotCRC.Bytes(), wantCRC.Bytes()) {
		t.Fatal("untraced CRC request differs from legacy CRC framing")
	}

	// Traced: the same legacy bytes behind [traceMagic][trace][parent].
	sp := telemetry.StartTrace("probe")
	var traced bytes.Buffer
	if _, err := writeRequest(&traced, header{trace: sp.Context()}, cts); err != nil {
		t.Fatal(err)
	}
	if traced.Len() != want.Len()+4+traceBodyLen {
		t.Fatalf("traced request length %d, want %d", traced.Len(), want.Len()+4+traceBodyLen)
	}
	if binary.LittleEndian.Uint32(traced.Bytes()[:4]) != traceMagic {
		t.Fatal("traced request does not lead with traceMagic")
	}
	if !bytes.Equal(traced.Bytes()[4+traceBodyLen:], want.Bytes()) {
		t.Fatal("traced request body differs from legacy framing")
	}
	h, err := readHeader(bytes.NewReader(traced.Bytes()), func(*header) (bool, error) { return false, nil })
	if err != nil {
		t.Fatal(err)
	}
	if h.trace != sp.Context() {
		t.Fatalf("round-tripped trace context %+v, want %+v", h.trace, sp.Context())
	}
}

// TestTracedClientUntracedServer: a server without a flight recorder
// parses and ignores the trace prefix — a traced client keeps working
// against it, transparently.
func TestTracedClientUntracedServer(t *testing.T) {
	fx := newFixture(t)
	fx.client.Flight = newTestRecorder()
	cliConn, srvConn := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer srvConn.Close()
		fx.server.Handle(srvConn)
	}()
	img := randomImage(31)
	want := fx.pnet.Infer(img)
	got, err := fx.client.Infer(context.Background(), cliConn, img)
	cliConn.Close()
	<-done
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-2 {
			t.Fatalf("logit %d: %g vs %g", i, got[i], want[i])
		}
	}
	// The client still recorded its own side of the trace.
	traces := fx.client.Flight.Traces()
	if len(traces) != 1 || traces[0].Root.Name != "infer" {
		t.Fatalf("client recorded %d traces, want one infer root", len(traces))
	}
}

// TestExemplarMatchesRecordedTrace: the latency histogram's exemplar
// must point at a trace the flight recorder actually kept, so a
// dashboard can pivot from a slow bucket straight to the trace.
func TestExemplarMatchesRecordedTrace(t *testing.T) {
	reg := telemetry.NewRegistry()
	fr := newTestRecorder()
	fx := newTCPFixture(t, Config{Metrics: reg, Flight: fr})
	fx.client.Flight = newTestRecorder()
	img := randomImage(65)
	dial := func(ctx context.Context) (net.Conn, error) { return fx.dial(t), nil }
	if _, err := fx.client.InferRetry(context.Background(), dial, img, RetryPolicy{}); err != nil {
		t.Fatal(err)
	}
	m := reg.Snapshot().Family(MetricRequestSeconds).Metric()
	if m == nil || m.Count == 0 {
		t.Fatal("request histogram not populated")
	}
	var ex *telemetry.Exemplar
	for _, b := range m.Buckets {
		if b.Exemplar != nil {
			ex = b.Exemplar
		}
	}
	if ex == nil {
		t.Fatal("no exemplar on any request bucket")
	}
	for _, tr := range fr.Traces() {
		if tr.Trace == ex.TraceID {
			return
		}
	}
	t.Fatalf("exemplar trace %s not in the flight recorder", ex.TraceID)
}

// TestBatchFlushTraceLinksMembers: a full-occupancy flush must record a
// batch-flush trace linking every member's trace (follow-from), and each
// member's request trace must link back to the flush — the two-way
// navigation DESIGN.md §14 promises.
func TestBatchFlushTraceLinksMembers(t *testing.T) {
	fr := newTestRecorder()
	const size = 2
	fx := newBatchFixture(t, Config{Flight: fr}, size, time.Minute)

	var wg sync.WaitGroup
	cliFrs := make([]*telemetry.FlightRecorder, size)
	errs := make([]error, size)
	for i := 0; i < size; i++ {
		cliFrs[i] = newTestRecorder()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn, done := serveOne(t, fx.server)
			defer func() { conn.Close(); <-done }()
			bc := fx.batchClient(int64(300 + i))
			bc.Flight = cliFrs[i]
			_, errs[i] = bc.Infer(context.Background(), conn, randomImage(int64(400+i)))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}

	memberIDs := map[string]bool{}
	for i, cf := range cliFrs {
		trs := cf.Traces()
		if len(trs) != 1 {
			t.Fatalf("client %d recorded %d traces, want 1", i, len(trs))
		}
		memberIDs[trs[0].Trace] = true
	}
	if len(memberIDs) != size {
		t.Fatalf("expected %d distinct member traces, got %d", size, len(memberIDs))
	}

	var flush *telemetry.RecordedTrace
	var members []telemetry.RecordedTrace
	traces := fr.Traces()
	for i := range traces {
		switch traces[i].Root.Name {
		case "batch-flush":
			flush = &traces[i]
		case "request":
			members = append(members, traces[i])
		}
	}
	if flush == nil {
		t.Fatal("no batch-flush trace recorded")
	}
	if !slices.Contains(flush.Root.Attrs, telemetry.L("occupancy", "2")) {
		t.Fatalf("flush attrs = %v, want occupancy 2", flush.Root.Attrs)
	}
	if !slices.Contains(flush.Root.Attrs, telemetry.L("reason", "full")) {
		t.Fatalf("flush attrs = %v, want reason full", flush.Root.Attrs)
	}
	linked := map[string]bool{}
	for _, l := range flush.Root.Links {
		linked[l] = true
	}
	for id := range memberIDs {
		if !linked[id] {
			t.Fatalf("flush trace does not link member trace %s", id)
		}
	}
	if len(members) != size {
		t.Fatalf("server recorded %d member request traces, want %d", len(members), size)
	}
	for _, m := range members {
		if !memberIDs[m.Trace] {
			t.Fatalf("member request trace %s does not join a client trace", m.Trace)
		}
		back := false
		for _, l := range m.Root.Links {
			if l == flush.Trace {
				back = true
			}
		}
		if !back {
			t.Fatalf("member trace %s does not link back to flush %s", m.Trace, flush.Trace)
		}
	}
}

// TestClientResilienceMetrics: a dial failure followed by a successful
// retry moves the client's retry count exactly once.
func TestClientResilienceMetrics(t *testing.T) {
	fx := newFixture(t)

	calls := 0
	dial := func(ctx context.Context) (net.Conn, error) {
		calls++
		if calls == 1 {
			return nil, errors.New("synthetic dial failure")
		}
		conn, _ := serveOne(t, fx.server)
		return conn.(net.Conn), nil
	}
	policy := RetryPolicy{
		MaxAttempts: 3,
		Seed:        9,
		Sleep:       func(ctx context.Context, d time.Duration) error { return nil },
	}
	if _, err := fx.client.InferRetry(context.Background(), dial, randomImage(66), policy); err != nil {
		t.Fatal(err)
	}
	if fx.client.Retries != 1 {
		t.Fatalf("Retries = %d, want 1", fx.client.Retries)
	}
}

// TestDisabledTracingZeroAlloc pins the other half of the acceptance
// bar: with no flight recorder, every tracing
// touchpoint on the request path must be allocation-free.
func TestDisabledTracingZeroAlloc(t *testing.T) {
	c := &Client{} // Flight nil
	var rt *reqTrace
	buf := make([]byte, 0, 64)
	allocs := testing.AllocsPerRun(200, func() {
		sp := c.startClientTrace("infer")
		_ = sp.Context()
		_ = sp.StartChild("attempt")
		recordClientTrace(nil, sp, nil)
		rt.setWire(telemetry.SpanContext{})
		rt.markShed()
		rt.timePhase(phaseQueue, time.Millisecond)
		if _, err := c.header(sp).appendTo(buf[:0]); err != nil {
			t.Error(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled tracing path allocates %.1f per op, want 0", allocs)
	}
}

package mlaas

// End-to-end tracing suite: the wire framing (byte-identical when off,
// forward-compat magic when on), cross-process trace stitching through
// the hedged client, batch-flush follow-from linkage, exemplar
// coherence, the client resilience metrics, and the zero-allocation
// guarantee of the disabled path.

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"fxhenn/internal/faultnet"
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

// TestHedgedSingleTraceAcrossServers is the acceptance scenario: two
// servers, the primary behind a fault injector corrupting responses, a
// hedged CRC-checked client. The whole exchange — failed attempt,
// failover, winning evaluation — must stitch under ONE trace ID: the
// client root holds the attempt spans (endpoint + breaker tags), the
// winning server's recorder holds a request span joining the same trace
// with queue-wait and per-layer children parented on a client attempt.
func TestHedgedSingleTraceAcrossServers(t *testing.T) {
	frs := []*telemetry.FlightRecorder{newTestRecorder(), newTestRecorder()}
	fl := newFleet(t, Config{Flight: frs[0]}, Config{Flight: frs[1]})
	fl.client.Flight = newTestRecorder()
	fl.client.FrameCheck = true

	faulty := faultyEndpoint(fl.endpoint(0), faultnet.Config{Seed: 201, CorruptReadAt: 30, CorruptBytes: 8})
	img := randomImage(63)
	want := fl.pnet.Infer(img)
	got, err := fl.client.InferHedged(context.Background(), []Endpoint{faulty, fl.endpoint(1)}, img, fastPolicy())
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-2 {
			t.Fatalf("logit %d: %g vs %g", i, got[i], want[i])
		}
	}

	// Client side: one hedged root; its attempts carry endpoint/breaker
	// tags, at least one failed and exactly the winner reported ok.
	ctraces := fl.client.Flight.Traces()
	if len(ctraces) != 1 {
		t.Fatalf("client recorded %d traces, want 1", len(ctraces))
	}
	root := ctraces[0].Root
	if root.Name != "infer-hedged" {
		t.Fatalf("client root = %q, want infer-hedged", root.Name)
	}
	traceID := ctraces[0].Trace
	if traceID == "" || root.Trace != traceID {
		t.Fatalf("client root trace %q / recorded %q", root.Trace, traceID)
	}
	var attempts []telemetry.SpanSnapshot
	for _, c := range root.Children {
		if c.Name == "attempt" {
			attempts = append(attempts, c)
		}
	}
	if len(attempts) < 2 {
		t.Fatalf("client recorded %d attempts, want ≥2 (failed primary + winner)", len(attempts))
	}
	okAttempts, attemptSpans := 0, map[string]bool{}
	for _, a := range attempts {
		if a.Attr("endpoint") == "" || a.Attr("breaker") == "" || a.Attr("kind") == "" {
			t.Fatalf("attempt missing endpoint/breaker/kind attrs: %+v", a.Attrs)
		}
		if a.Trace != traceID {
			t.Fatalf("attempt trace %q, want %q", a.Trace, traceID)
		}
		attemptSpans[a.Span] = true
		if a.Attr("outcome") == "ok" {
			okAttempts++
		}
	}
	if okAttempts != 1 {
		t.Fatalf("%d attempts reported ok, want exactly 1", okAttempts)
	}

	// Server side: some replica recorded a successful request under the
	// SAME trace ID, parented on one of the client's attempt spans, with
	// the queue wait and the per-layer evaluate breakdown.
	found := false
	for _, fr := range frs {
		for _, tr := range fr.Traces() {
			if tr.Trace != traceID || tr.Root.Name != "request" || tr.Root.Attr("status") != "ok" {
				continue
			}
			if !attemptSpans[tr.Root.Parent] {
				t.Fatalf("server request parent %q not one of the client attempts", tr.Root.Parent)
			}
			if tr.Root.Find("queue") == nil {
				t.Fatal("server trace missing queue-wait span")
			}
			eval := tr.Root.Find("evaluate")
			if eval == nil || len(eval.Children) == 0 {
				t.Fatal("server trace missing per-layer evaluate breakdown")
			}
			for _, l := range eval.Children {
				if l.Attr("hops") == "" || l.Attr("ks") == "" {
					t.Fatalf("layer span %q missing hops/ks attrs", l.Name)
				}
			}
			found = true
		}
	}
	if !found {
		t.Fatalf("no server recorded an ok request under trace %s", traceID)
	}
}

// TestExemplarMatchesRecordedTrace: the latency histogram's exemplar
// must point at a trace the flight recorder actually kept, so a
// dashboard can pivot from a slow bucket straight to the trace.
func TestExemplarMatchesRecordedTrace(t *testing.T) {
	reg := telemetry.NewRegistry()
	fr := newTestRecorder()
	fl := newFleet(t, Config{Metrics: reg, Flight: fr})
	fl.client.Flight = newTestRecorder()
	img := randomImage(65)
	if _, err := fl.client.InferHedged(context.Background(), []Endpoint{fl.endpoint(0)}, img, fastPolicy()); err != nil {
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
	if occ := flush.Root.Attr("occupancy"); occ != "2" {
		t.Fatalf("flush occupancy = %q, want 2", occ)
	}
	if flush.Root.Attr("reason") != "full" {
		t.Fatalf("flush reason = %q, want full", flush.Root.Attr("reason"))
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

// TestClientResilienceMetrics: SetMetrics exports the retry counter and
// the per-endpoint breaker gauges; a dial failure followed by a
// successful retry moves exactly the retry counter.
func TestClientResilienceMetrics(t *testing.T) {
	reg := telemetry.NewRegistry()
	fx := newFixture(t)
	fx.client.SetMetrics(reg)

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
	snap := reg.Snapshot()
	if m := snap.Family(MetricClientRetries).Metric(); m == nil || m.Value != 1 {
		t.Fatalf("retry counter = %+v, want 1", m)
	}
	if m := snap.Family(MetricClientHedges).Metric(); m == nil || m.Value != 0 {
		t.Fatalf("hedge counter = %+v, want 0", m)
	}

	// The hedged path publishes per-endpoint breaker state.
	fl := newFleet(t, Config{})
	fl.client.SetMetrics(reg)
	dead := deadEndpoint(t, "dead")
	if _, err := fl.client.InferHedged(context.Background(), []Endpoint{dead, fl.endpoint(0)}, randomImage(67), fastPolicy()); err != nil {
		t.Fatal(err)
	}
	fam := reg.Snapshot().Family(MetricClientBreaker)
	for _, ep := range []string{"dead", "s0"} {
		if m := fam.Metric(telemetry.L("endpoint", ep)); m == nil {
			t.Fatalf("no breaker gauge for endpoint %s", ep)
		}
	}
}

// TestDisabledTracingZeroAlloc pins the other half of the acceptance
// bar: with no flight recorder and no client metrics, every tracing
// touchpoint on the request path must be allocation-free.
func TestDisabledTracingZeroAlloc(t *testing.T) {
	c := &Client{} // Flight nil, cm nil
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
		c.cm.observeRetry()
		c.cm.observeHedge()
		c.cm.setBreaker("s0", breakerClosed)
		if _, err := c.header(sp).appendTo(buf[:0]); err != nil {
			t.Error(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled tracing path allocates %.1f per op, want 0", allocs)
	}
}

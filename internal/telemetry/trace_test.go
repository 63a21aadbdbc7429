package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceIDUniqueAndHex(t *testing.T) {
	a, b := NewTraceID(), NewTraceID()
	if a == b {
		t.Fatal("two trace IDs collided")
	}
	if a.IsZero() || b.IsZero() {
		t.Fatal("minted trace ID is zero")
	}
	if len(a.String()) != 32 {
		t.Fatalf("trace ID hex length = %d, want 32", len(a.String()))
	}
	if (TraceID{}).String() != strings.Repeat("0", 32) {
		t.Fatal("zero trace ID renders wrong")
	}
}

func TestSpanIDNeverZero(t *testing.T) {
	seen := map[SpanID]bool{}
	for i := 0; i < 1000; i++ {
		id := NewSpanID()
		if id.IsZero() {
			t.Fatal("minted span ID is zero")
		}
		if seen[id] {
			t.Fatal("span ID collision within process")
		}
		seen[id] = true
	}
}

func TestStartTracePropagatesIdentity(t *testing.T) {
	root := StartTrace("client-request")
	if root.Trace.IsZero() || root.ID.IsZero() {
		t.Fatal("StartTrace left IDs zero")
	}
	child := root.StartChild("attempt")
	if child.Trace != root.Trace {
		t.Fatal("child did not inherit trace ID")
	}
	if child.Parent != root.ID {
		t.Fatal("child parent != root span ID")
	}
	if child.ID == root.ID || child.ID.IsZero() {
		t.Fatal("child span ID not fresh")
	}

	// The remote side joins the trace via the propagated context.
	remote := StartTraceFrom("server-request", child.Context())
	if remote.Trace != root.Trace {
		t.Fatal("remote span did not join the trace")
	}
	if remote.Parent != child.ID {
		t.Fatal("remote parent != propagating span")
	}

	// Plain StartSpan children stay untraced.
	plain := StartSpan("untraced").StartChild("c")
	if !plain.Trace.IsZero() || !plain.ID.IsZero() {
		t.Fatal("untraced spans must carry zero IDs")
	}
}

func TestStartTraceFromZeroMintsFresh(t *testing.T) {
	s := StartTraceFrom("server-request", SpanContext{})
	if s.Trace.IsZero() {
		t.Fatal("zero context must mint a fresh trace")
	}
	if !s.Parent.IsZero() {
		t.Fatal("fresh trace must have no parent")
	}
}

func TestSpanSnapshotTree(t *testing.T) {
	root := StartTrace("request")
	root.SetAttr("status", "ok")
	c := root.StartChild("evaluate")
	c.End()
	root.End()

	snap := root.Snapshot()
	if snap.Name != "request" || snap.Trace != root.Trace.String() {
		t.Fatalf("bad root snapshot: %+v", snap)
	}
	if !slices.Contains(snap.Attrs, L("status", "ok")) {
		t.Fatal("attr lost in snapshot")
	}
	if snap.Find("evaluate") == nil {
		t.Fatal("child not found in snapshot")
	}
	if snap.Find("nope") != nil {
		t.Fatal("Find invented a span")
	}
	if snap.Find("evaluate").Parent != root.ID.String() {
		t.Fatal("child snapshot parent wrong")
	}
}

// TestSpanTreeRace builds a span tree from several goroutines while a
// reader snapshots/formats it; run under -race this pins the locking.
func TestSpanTreeRace(t *testing.T) {
	root := StartTrace("request")
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				c := root.StartChild("phase")
				c.SetAttr("g", "x")
				gc := c.StartChild("layer")
				gc.End()
				c.End()
			}
		}(g)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			_ = root.Snapshot()
			_ = root.String()
		}
	}()
	wg.Wait()
	<-done
	root.End()
	if n := len(root.Snapshot().Children); n != 4*50 {
		t.Fatalf("children = %d, want %d", n, 4*50)
	}
}

func TestNilSpanTraceOpsAreNoOps(t *testing.T) {
	var s *Span
	if !s.Context().IsZero() || !s.TraceID().IsZero() {
		t.Fatal("nil span leaked identity")
	}
	if snap := s.Snapshot(); snap.Name != "" {
		t.Fatal("nil span snapshot not empty")
	}
}

func TestFlightRecorderKeepsFlaggedDropsSampled(t *testing.T) {
	fr := NewFlightRecorder(FlightConfig{Capacity: 8, SampleRate: 0, Seed: 1})
	for i := 0; i < 20; i++ {
		s := StartTrace("request")
		s.End()
		kept := fr.Record(s)
		if kept {
			t.Fatal("SampleRate=0 kept an untagged trace")
		}
	}
	flagged := StartTrace("request")
	flagged.End()
	if !fr.Record(flagged, "error") {
		t.Fatal("tagged trace was dropped")
	}
	traces := fr.Traces()
	if len(traces) != 1 || traces[0].Tags[0] != "error" {
		t.Fatalf("traces = %+v, want the one flagged trace", traces)
	}
	if fr.Kept() != 1 || fr.Dropped() != 20 {
		t.Fatalf("kept=%d dropped=%d, want 1/20", fr.Kept(), fr.Dropped())
	}
}

func TestFlightRecorderRingBounded(t *testing.T) {
	fr := NewFlightRecorder(FlightConfig{Capacity: 4, SampleRate: 1, Seed: 1})
	var last string
	for i := 0; i < 10; i++ {
		s := StartTrace("request")
		s.End()
		fr.Record(s)
		last = s.TraceID().String()
	}
	traces := fr.Traces()
	if len(traces) != 4 {
		t.Fatalf("ring holds %d, want capacity 4", len(traces))
	}
	if traces[len(traces)-1].Trace != last {
		t.Fatal("ring lost the newest trace")
	}
}

func TestFlightRecorderSamplingRate(t *testing.T) {
	fr := NewFlightRecorder(FlightConfig{Capacity: 2048, SampleRate: 0.5, Seed: 7})
	for i := 0; i < 1000; i++ {
		s := StartTrace("request")
		s.End()
		fr.Record(s)
	}
	kept := fr.Kept()
	if math.Abs(float64(kept)-500) > 100 {
		t.Fatalf("kept %d of 1000 at rate 0.5", kept)
	}
}

func TestFlightRecorderJSONLLog(t *testing.T) {
	var buf bytes.Buffer
	fr := NewFlightRecorder(FlightConfig{Capacity: 4, SampleRate: 1, Seed: 1, Log: &buf})
	for i := 0; i < 3; i++ {
		s := StartTrace("request")
		s.StartChild("evaluate").End()
		s.End()
		fr.Record(s, "slow")
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("JSONL lines = %d, want 3", len(lines))
	}
	for _, line := range lines {
		var rec RecordedTrace
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
		if rec.Trace == "" || rec.Root.Find("evaluate") == nil {
			t.Fatalf("JSONL line lost structure: %+v", rec)
		}
	}
}

func TestFlightRecorderHandler(t *testing.T) {
	fr := NewFlightRecorder(FlightConfig{Capacity: 4, SampleRate: 1, Seed: 1})
	s := StartTrace("request")
	s.End()
	fr.Record(s, "shed")

	rr := httptest.NewRecorder()
	fr.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/traces", nil))
	if ct := rr.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type = %q", ct)
	}
	var payload struct {
		Kept    int64           `json:"kept"`
		Dropped int64           `json:"dropped"`
		Traces  []RecordedTrace `json:"traces"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &payload); err != nil {
		t.Fatal(err)
	}
	if payload.Kept != 1 || len(payload.Traces) != 1 || payload.Traces[0].Tags[0] != "shed" {
		t.Fatalf("handler payload = %+v", payload)
	}
}

func TestFlightRecorderConcurrentRecord(t *testing.T) {
	fr := NewFlightRecorder(FlightConfig{Capacity: 16, SampleRate: 0.5, Seed: 3})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				s := StartTrace("request")
				s.End()
				fr.Record(s, "error")
				_ = fr.Traces()
			}
		}()
	}
	wg.Wait()
	if got := len(fr.Traces()); got != 16 {
		t.Fatalf("ring holds %d, want 16", got)
	}
}

func TestNilFlightRecorderNoOp(t *testing.T) {
	var fr *FlightRecorder
	s := StartTrace("request")
	s.End()
	if fr.Record(s, "error") {
		t.Fatal("nil recorder kept a trace")
	}
	if fr.Traces() != nil || fr.Kept() != 0 || fr.Dropped() != 0 {
		t.Fatal("nil recorder leaked state")
	}
	// Recording a nil root is also a no-op.
	live := NewFlightRecorder(FlightConfig{Capacity: 2, SampleRate: 1})
	if live.Record(nil) {
		t.Fatal("nil root was recorded")
	}
}

func TestExemplarLinksBucketToTrace(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("req_seconds", "request latency", []float64{0.1, 1})
	h.Observe(0.05) // no exemplar
	h.ObserveExemplar(0.5, "deadbeef")
	h.ObserveExemplar(5, "cafef00d")

	snap := r.Snapshot()
	m := snap.Family("req_seconds").Metric()
	if m.Count != 3 {
		t.Fatalf("count = %d, want 3 (ObserveExemplar must count once)", m.Count)
	}
	if m.Buckets[0].Exemplar != nil {
		t.Fatal("bucket 0 has a phantom exemplar")
	}
	if ex := m.Buckets[1].Exemplar; ex == nil || ex.TraceID != "deadbeef" || ex.Value != 0.5 {
		t.Fatalf("bucket 1 exemplar = %+v", m.Buckets[1].Exemplar)
	}
	if ex := m.Buckets[2].Exemplar; ex == nil || ex.TraceID != "cafef00d" {
		t.Fatalf("overflow bucket exemplar = %+v", m.Buckets[2].Exemplar)
	}

	// Text exposition carries the OpenMetrics suffix.
	var sb strings.Builder
	WriteText(&sb, snap)
	if !strings.Contains(sb.String(), `# {trace_id="deadbeef"} 0.5`) {
		t.Fatalf("exposition missing exemplar:\n%s", sb.String())
	}

	// JSON round-trips the exemplar.
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	bm := back.Family("req_seconds").Metric()
	if ex := bm.Buckets[1].Exemplar; ex == nil || ex.TraceID != "deadbeef" {
		t.Fatalf("exemplar lost in JSON round-trip: %+v", bm.Buckets[1].Exemplar)
	}
}

func TestExemplarEmptyTraceIDCountsOnly(t *testing.T) {
	h := newHistogram([]float64{1})
	h.ObserveExemplar(0.5, "")
	if h.Count() != 1 {
		t.Fatal("observation lost")
	}
	if h.bucketExemplar(0) != nil {
		t.Fatal("empty trace ID stored an exemplar")
	}
}

func TestNilHistogramObserveExemplar(t *testing.T) {
	var h *Histogram
	h.ObserveExemplar(1, "x") // must not panic
}

func TestDisabledTracingZeroAlloc(t *testing.T) {
	var fr *FlightRecorder
	var s *Span
	var h *Histogram
	allocs := testing.AllocsPerRun(1000, func() {
		c := s.StartChild("attempt")
		c.SetAttr("endpoint", "s0")
		c.End()
		_ = s.Context()
		_ = s.TraceID()
		// No variadic tags here: the tag slice itself would allocate at
		// the call site. Instrumented code guards tag construction behind
		// a recorder-nil check for exactly that reason.
		fr.Record(s)
		h.ObserveExemplar(0.5, "")
		_ = fr.Kept()
	})
	if allocs != 0 {
		t.Fatalf("disabled tracing path allocates %.1f per op, want 0", allocs)
	}
}

func TestRecordedTraceDuration(t *testing.T) {
	fr := NewFlightRecorder(FlightConfig{Capacity: 2, SampleRate: 1, Seed: 1})
	s := StartTrace("request")
	time.Sleep(2 * time.Millisecond)
	s.End()
	fr.Record(s)
	traces := fr.Traces()
	if len(traces) != 1 || traces[0].DurationNs < int64(time.Millisecond) {
		t.Fatalf("recorded duration %v too small", time.Duration(traces[0].DurationNs))
	}
}

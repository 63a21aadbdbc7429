package telemetry

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"io"
	mrand "math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// TraceID identifies one end-to-end request across processes: 16 random
// bytes minted once at the client and carried over the wire. The zero
// value means "no trace".
type TraceID [16]byte

// SpanID identifies one span within a trace: 8 bytes, unique per
// process. The zero value means "no parent".
type SpanID [8]byte

// IsZero reports whether the trace ID is unset.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// String renders the trace ID as 32 lowercase hex digits.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// IsZero reports whether the span ID is unset.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// String renders the span ID as 16 lowercase hex digits.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// NewTraceID mints a random trace ID (crypto/rand; falls back to the
// span-ID counter if the entropy source fails, which keeps IDs unique
// within the process).
func NewTraceID() TraceID {
	var t TraceID
	if _, err := rand.Read(t[:]); err != nil {
		binary.LittleEndian.PutUint64(t[:8], nextSpanWord())
		binary.LittleEndian.PutUint64(t[8:], nextSpanWord())
	}
	return t
}

// spanSeq generates process-unique span IDs: a Weyl sequence (odd-step
// counter) seeded once from crypto/rand, so IDs are unique without a
// syscall per span.
var spanSeq atomic.Uint64

var spanSeqInit = func() struct{} {
	var b [8]byte
	rand.Read(b[:]) //nolint:errcheck // zero seed is still a valid sequence
	spanSeq.Store(binary.LittleEndian.Uint64(b[:]))
	return struct{}{}
}()

func nextSpanWord() uint64 {
	// Odd increment → full-period sequence over uint64.
	return spanSeq.Add(0x9e3779b97f4a7c15)
}

// NewSpanID mints a process-unique span ID (never zero).
func NewSpanID() SpanID {
	var s SpanID
	for {
		binary.LittleEndian.PutUint64(s[:], nextSpanWord())
		if !s.IsZero() {
			return s
		}
	}
}

// SpanContext is the wire-propagatable identity of a span: which trace
// it belongs to and which span it is. The zero value means "not traced".
type SpanContext struct {
	Trace TraceID
	Span  SpanID
}

// IsZero reports whether the context carries no trace.
func (c SpanContext) IsZero() bool { return c.Trace.IsZero() }

// SpanSnapshot is an immutable copy of a span subtree, safe to encode
// and retain after the live span is gone.
type SpanSnapshot struct {
	Name       string         `json:"name"`
	Trace      string         `json:"trace,omitempty"`
	Span       string         `json:"span,omitempty"`
	Parent     string         `json:"parent,omitempty"`
	DurationNs int64          `json:"duration_ns"`
	Attrs      []Label        `json:"attrs,omitempty"`
	Children   []SpanSnapshot `json:"children,omitempty"`
}

// Find returns the first snapshot in the tree (pre-order) with the given
// name, or nil.
func (s *SpanSnapshot) Find(name string) *SpanSnapshot {
	if s == nil {
		return nil
	}
	if s.Name == name {
		return s
	}
	for i := range s.Children {
		if hit := s.Children[i].Find(name); hit != nil {
			return hit
		}
	}
	return nil
}

// RecordedTrace is one entry in a flight recorder: a finished span tree
// plus the recorder's classification tags (error, slow, shed,
// sampled, ...).
type RecordedTrace struct {
	Trace      string       `json:"trace"`
	Tags       []string     `json:"tags,omitempty"`
	RecordedAt time.Time    `json:"recorded_at"`
	DurationNs int64        `json:"duration_ns"`
	Root       SpanSnapshot `json:"root"`
}

// FlightConfig configures a FlightRecorder.
type FlightConfig struct {
	// Capacity bounds each of the two rings (flagged and sampled);
	// 0 defaults to 128.
	Capacity int
	// SampleRate is the probability an un-flagged trace is kept
	// (flagged traces are always kept). 1 keeps everything.
	SampleRate float64
	// Seed makes the sampling decision deterministic for tests;
	// 0 seeds from the span-ID sequence.
	Seed int64
	// Log, when non-nil, receives one JSON line per kept trace.
	Log io.Writer
}

// FlightRecorder is a tail-sampling in-memory trace store: a bounded
// ring that always keeps "interesting" traces (any call with tags) and
// probabilistically samples the rest, so the ring survives a flood of
// healthy traffic without evicting the one trace you need. A nil
// recorder is a no-op, so instrumented code never branches on
// "tracing enabled".
type FlightRecorder struct {
	mu      sync.Mutex
	flagged ring
	sampled ring
	rate    float64
	rng     *mrand.Rand
	log     io.Writer
	kept    atomic.Int64
	dropped atomic.Int64
}

type ring struct {
	buf  []RecordedTrace
	next int
	n    int
}

func (r *ring) push(t RecordedTrace) {
	r.buf[r.next] = t
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
}

// oldest-first
func (r *ring) all() []RecordedTrace {
	out := make([]RecordedTrace, 0, r.n)
	start := r.next - r.n
	if start < 0 {
		start += len(r.buf)
	}
	for i := 0; i < r.n; i++ {
		out = append(out, r.buf[(start+i)%len(r.buf)])
	}
	return out
}

// NewFlightRecorder builds a recorder from cfg.
func NewFlightRecorder(cfg FlightConfig) *FlightRecorder {
	cap := cfg.Capacity
	if cap <= 0 {
		cap = 128
	}
	rate := cfg.SampleRate
	if rate < 0 {
		rate = 0
	}
	if rate > 1 {
		rate = 1
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = int64(nextSpanWord())
	}
	return &FlightRecorder{
		flagged: ring{buf: make([]RecordedTrace, cap)},
		sampled: ring{buf: make([]RecordedTrace, cap)},
		rate:    rate,
		rng:     mrand.New(mrand.NewSource(seed)),
		log:     cfg.Log,
	}
}

// Record snapshots a finished span tree into the recorder. Any tags mark
// the trace as flagged (always kept); an untagged trace is kept with
// probability SampleRate. Returns whether the trace was kept. Nil
// recorder and nil root are no-ops.
func (f *FlightRecorder) Record(root *Span, tags ...string) bool {
	if f == nil || root == nil {
		return false
	}
	rec := RecordedTrace{
		Trace:      root.TraceID().String(),
		Tags:       tags,
		RecordedAt: time.Now(),
		DurationNs: int64(root.Duration()),
		Root:       root.Snapshot(),
	}
	f.mu.Lock()
	keep := len(tags) > 0
	if keep {
		f.flagged.push(rec)
	} else if f.rate >= 1 || f.rng.Float64() < f.rate {
		keep = true
		f.sampled.push(rec)
	}
	log := f.log
	f.mu.Unlock()

	if !keep {
		f.dropped.Add(1)
		return false
	}
	f.kept.Add(1)
	if log != nil {
		line, err := json.Marshal(rec)
		if err == nil {
			line = append(line, '\n')
			f.mu.Lock()
			f.log.Write(line) //nolint:errcheck // best-effort export
			f.mu.Unlock()
		}
	}
	return true
}

// Traces returns the recorded traces, flagged first, each oldest-first.
func (f *FlightRecorder) Traces() []RecordedTrace {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return append(f.flagged.all(), f.sampled.all()...)
}

// Kept and Dropped report how many traces the recorder has retained and
// discarded since construction.
func (f *FlightRecorder) Kept() int64 {
	if f == nil {
		return 0
	}
	return f.kept.Load()
}

// Dropped reports how many untagged traces lost the sampling coin flip.
func (f *FlightRecorder) Dropped() int64 {
	if f == nil {
		return 0
	}
	return f.dropped.Load()
}

// Handler serves the recorded traces as JSON (flagged first). Mounted as
// /debug/traces on the metrics mux.
func (f *FlightRecorder) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		type payload struct {
			Kept    int64           `json:"kept"`
			Dropped int64           `json:"dropped"`
			Traces  []RecordedTrace `json:"traces"`
		}
		enc.Encode(payload{Kept: f.Kept(), Dropped: f.Dropped(), Traces: f.Traces()}) //nolint:errcheck
	})
}

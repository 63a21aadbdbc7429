package telemetry

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// Span is one timed region of a request, optionally with labeled
// attributes and child spans (phase → layer → ...). Spans are built by
// one goroutine at a time (the request handler); Format may run later
// from another goroutine once the span has ended. A nil *Span is a no-op
// on every method, so instrumented code never branches on "telemetry
// enabled".
type Span struct {
	Name     string
	Attrs    []Label
	Children []*Span

	// Trace identity: populated by StartTrace/StartTraceFrom and
	// inherited by children. Spans from plain StartSpan carry zero IDs
	// and behave exactly as before tracing existed.
	Trace  TraceID
	ID     SpanID
	Parent SpanID

	start time.Time
	dur   time.Duration
	mu    sync.Mutex
	ended bool
}

// StartSpan begins a root span.
func StartSpan(name string) *Span {
	return &Span{Name: name, start: time.Now()}
}

// StartTrace begins a root span with a fresh trace ID.
func StartTrace(name string) *Span {
	return StartTraceFrom(name, SpanContext{Trace: NewTraceID()})
}

// StartTraceFrom begins a root span continuing a propagated trace
// context (the remote side of a wire hop): the span joins ctx.Trace
// with ctx.Span as its parent. A zero ctx mints a fresh trace.
func StartTraceFrom(name string, ctx SpanContext) *Span {
	if ctx.Trace.IsZero() {
		ctx.Trace = NewTraceID()
		ctx.Span = SpanID{}
	}
	s := StartSpan(name)
	s.Trace = ctx.Trace
	s.Parent = ctx.Span
	s.ID = NewSpanID()
	return s
}

// StartChild begins a child span of s, inheriting the trace ID.
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	c := StartSpan(name)
	if !s.Trace.IsZero() {
		c.Trace = s.Trace
		c.Parent = s.ID
		c.ID = NewSpanID()
	}
	s.mu.Lock()
	s.Children = append(s.Children, c)
	s.mu.Unlock()
	return c
}

// Context returns the span's wire-propagatable identity (zero if the
// span is nil or not part of a trace).
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return SpanContext{Trace: s.Trace, Span: s.ID}
}

// TraceID returns the span's trace ID (zero if nil or untraced).
func (s *Span) TraceID() TraceID {
	if s == nil {
		return TraceID{}
	}
	return s.Trace
}

// Snapshot deep-copies the span tree into an immutable, encodable form.
func (s *Span) Snapshot() SpanSnapshot {
	if s == nil {
		return SpanSnapshot{}
	}
	s.mu.Lock()
	dur := s.dur
	if !s.ended {
		dur = time.Since(s.start)
	}
	snap := SpanSnapshot{
		Name:       s.Name,
		DurationNs: int64(dur),
		Attrs:      append([]Label(nil), s.Attrs...),
	}
	if !s.Trace.IsZero() {
		snap.Trace = s.Trace.String()
		snap.Span = s.ID.String()
		if !s.Parent.IsZero() {
			snap.Parent = s.Parent.String()
		}
	}
	children := append([]*Span(nil), s.Children...)
	s.mu.Unlock()
	for _, c := range children {
		snap.Children = append(snap.Children, c.Snapshot())
	}
	return snap
}

// SetAttr attaches a key=value attribute.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.Attrs = append(s.Attrs, L(key, value))
	s.mu.Unlock()
}

// End stops the span clock (idempotent) and returns the duration.
func (s *Span) End() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.ended {
		s.dur = time.Since(s.start)
		s.ended = true
	}
	return s.dur
}

// Duration returns the span's duration (so far, if not ended).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return s.dur
	}
	return time.Since(s.start)
}

// AddChild attaches a pre-built child span (used to graft externally
// measured regions, e.g. per-layer stats, onto a request span).
func (s *Span) AddChild(c *Span) {
	if s == nil || c == nil {
		return
	}
	s.mu.Lock()
	s.Children = append(s.Children, c)
	s.mu.Unlock()
}

// CompletedSpan builds an already-ended span from an external
// measurement.
func CompletedSpan(name string, d time.Duration, attrs ...Label) *Span {
	return &Span{Name: name, dur: d, ended: true, Attrs: attrs}
}

// String renders the span tree on one line:
//
//	request 12.3ms [status=ok] { decode 1.2ms; evaluate 10.1ms { Cnv1 4ms [hops=75] } }
func (s *Span) String() string {
	if s == nil {
		return ""
	}
	var sb strings.Builder
	s.format(&sb)
	return sb.String()
}

func (s *Span) format(sb *strings.Builder) {
	s.mu.Lock()
	dur := s.dur
	if !s.ended {
		dur = time.Since(s.start)
	}
	attrs := s.Attrs
	children := s.Children
	s.mu.Unlock()

	fmt.Fprintf(sb, "%s %s", s.Name, dur.Round(time.Microsecond))
	if len(attrs) > 0 {
		sb.WriteString(" [")
		for i, a := range attrs {
			if i > 0 {
				sb.WriteByte(' ')
			}
			fmt.Fprintf(sb, "%s=%s", a.Key, a.Value)
		}
		sb.WriteByte(']')
	}
	if len(children) > 0 {
		sb.WriteString(" { ")
		for i, c := range children {
			if i > 0 {
				sb.WriteString("; ")
			}
			c.format(sb)
		}
		sb.WriteString(" }")
	}
}

package telemetry

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs_total", "requests", L("status", "ok"))
	c.Inc()
	c.Add(4)
	c.Add(-7) // ignored: counters only go up
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.Counter("reqs_total", "requests", L("status", "ok")); again != c {
		t.Fatal("get-or-create returned a different handle for the same name+labels")
	}
	if other := r.Counter("reqs_total", "requests", L("status", "busy")); other == c {
		t.Fatal("distinct label values share a handle")
	}

	g := r.Gauge("inflight", "in-flight requests")
	g.Set(3)
	g.Add(2)
	g.Add(-4)
	if got := g.Value(); got != 1 {
		t.Fatalf("gauge = %v, want 1", got)
	}
}

func TestKindAndSchemaMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "")
	mustPanic(t, "kind mismatch", func() { r.Gauge("m", "") })
	r.Counter("n", "", L("a", "1"))
	mustPanic(t, "label schema mismatch", func() { r.Counter("n", "", L("b", "1")) })
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	f()
}

func TestLabelOrderInsensitive(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x", "", L("k1", "a"), L("k2", "b"))
	b := r.Counter("x", "", L("k2", "b"), L("k1", "a"))
	if a != b {
		t.Fatal("label order changed metric identity")
	}
}

func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	c := r.Counter("a", "")
	g := r.Gauge("b", "")
	h := r.Histogram("c", "", nil)
	c.Inc()
	g.Set(1)
	h.Observe(1)
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry returned live handles")
	}
	if snap := r.Snapshot(); len(snap.Families) != 0 {
		t.Fatal("nil registry snapshot not empty")
	}
}

// TestDisabledTelemetryZeroAlloc pins the acceptance criterion that
// disabled telemetry (nil registry → nil handles, nil spans) adds zero
// allocations to instrumented hot paths.
func TestDisabledTelemetryZeroAlloc(t *testing.T) {
	var r *Registry
	c := r.Counter("a", "")
	g := r.Gauge("b", "")
	h := r.Histogram("c", "", nil)
	var sp *Span
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		g.Set(1.5)
		g.Add(0.5)
		h.Observe(0.01)
		child := sp.StartChild("phase")
		child.SetAttr("k", "v")
		child.End()
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled telemetry allocated %v per run, want 0", allocs)
	}
}

func TestSnapshotDeterministicAndQueryable(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total", "", L("x", "2")).Add(2)
	r.Counter("b_total", "", L("x", "1")).Add(1)
	r.Counter("a_total", "").Inc()
	r.Gauge("g", "").Set(7)

	s1, s2 := r.Snapshot(), r.Snapshot()
	if len(s1.Families) != 3 || s1.Families[0].Name != "a_total" || s1.Families[1].Name != "b_total" {
		t.Fatalf("families not sorted: %+v", s1.Families)
	}
	for i := range s1.Families {
		if s1.Families[i].Name != s2.Families[i].Name {
			t.Fatal("snapshot order not deterministic")
		}
	}
	m := s1.Family("b_total").Metric(L("x", "2"))
	if m == nil || m.Value != 2 {
		t.Fatalf("labeled lookup failed: %+v", m)
	}
	if s1.Family("missing") != nil {
		t.Fatal("missing family not nil")
	}
}

func TestGaugeConcurrentAdd(t *testing.T) {
	g := NewRegistry().Gauge("g", "")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				g.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := g.Value(); got != 8000 {
		t.Fatalf("concurrent gauge adds lost updates: %v", got)
	}
}

func TestSpanTree(t *testing.T) {
	root := StartSpan("request")
	root.SetAttr("req", "42")
	d := root.StartChild("decode")
	time.Sleep(time.Millisecond)
	d.End()
	ev := root.StartChild("evaluate")
	ev.AddChild(CompletedSpan("Cnv1", 3*time.Millisecond, L("hops", "75")))
	ev.End()
	total := root.End()
	if total <= 0 || root.End() != total {
		t.Fatalf("End not idempotent: %v then %v", total, root.End())
	}
	if d.Duration() < time.Millisecond {
		t.Fatalf("child duration %v too short", d.Duration())
	}
	out := root.String()
	for _, want := range []string{"request", "req=42", "decode", "evaluate", "Cnv1", "hops=75"} {
		if !strings.Contains(out, want) {
			t.Fatalf("span render missing %q: %s", want, out)
		}
	}
}

func TestMeanMinMax(t *testing.T) {
	h := NewRegistry().Histogram("h", "", []float64{1, 2, 4})
	if h.Count() != 0 || !math.IsNaN(h.Min()) || !math.IsNaN(h.Max()) {
		t.Fatal("empty histogram stats not NaN")
	}
	for _, v := range []float64{0.5, 1.5, 3, 10} {
		h.Observe(v)
	}
	if h.Min() != 0.5 || h.Max() != 10 {
		t.Fatalf("min/max = %v/%v", h.Min(), h.Max())
	}
	if got := h.Sum() / float64(h.Count()); math.Abs(got-3.75) > 1e-12 {
		t.Fatalf("mean = %v, want 3.75", got)
	}
}

package main

import (
	"errors"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// fakeClock is simulated time for a single sender: sleeping and serving
// both just move it forward.
type fakeClock struct{ t time.Time }

func (f *fakeClock) clock() clock {
	return clock{now: func() time.Time { return f.t }, sleep: f.advance}
}

func (f *fakeClock) advance(d time.Duration) { f.t = f.t.Add(d) }

func TestPoissonScheduleIsSeeded(t *testing.T) {
	a := poissonSchedule(7, 50, 10*time.Second)
	b := poissonSchedule(7, 50, 10*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	c := poissonSchedule(8, 50, 10*time.Second)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	if len(a) != 500 || len(c) != 500 {
		t.Fatalf("50 req/s over 10 s scheduled %d and %d requests, want 500 whatever the seed", len(a), len(c))
	}
	for i, due := range a {
		if due < 0 || due >= 10*time.Second {
			t.Fatalf("request %d due at %v, outside the phase", i, due)
		}
		if i > 0 && due < a[i-1] {
			t.Fatalf("schedule not ascending at %d", i)
		}
	}
}

func TestPercentilesAreExactOrderStatistics(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(i + 1)
	}
	for q, want := range map[float64]float64{0.5: 50, 0.9: 90, 0.99: 99, 1: 100, 0: 1} {
		if got := percentile(v, q); got != want {
			t.Errorf("p%g of 1..100 = %g, want %g", 100*q, got, want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %g", got)
	}
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{100, 0.90, true}, // ranks 91..100 lie beyond
		{99, 0.90, false}, // only 9 do
		{1000, 0.99, true},
		{999, 0.99, false},
		{21, 0.50, true},
		{10, 0.90, false},
		{0, 0.90, false},
	} {
		if got := tailSupported(c.n, c.q); got != c.want {
			t.Errorf("tailSupported(%d, %g) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
	v := make([]float64, 99)
	for i := range v {
		v[i] = float64(i + 1)
	}
	if got := tailPercentile(v, 0.90); got != 0 {
		t.Errorf("unsupported p90 reported as %g, want 0", got)
	}
	if got := tailPercentile(append(v, 100), 0.90); got != 90 {
		t.Errorf("supported p90 = %g, want 90", got)
	}
}

// One sender, requests due every 10 ms, each served in 1 ms except the
// third, which stalls for 50 ms. An open loop must charge the stall to
// the requests that queued behind it: their latency runs from their due
// time, not from when the sender got round to them.
func TestOpenLoopChargesAStallToQueuedRequests(t *testing.T) {
	fc := &fakeClock{t: time.Unix(0, 0)}
	schedule := make([]time.Duration, 8)
	for i := range schedule {
		schedule[i] = time.Duration(i) * 10 * time.Millisecond
	}
	ph := runOpen(fc.clock(), schedule, 1, func(_, i int) (float64, error) {
		if i == 2 {
			fc.advance(50 * time.Millisecond)
		} else {
			fc.advance(time.Millisecond)
		}
		return 0, nil
	})
	if len(ph.Samples) != len(schedule) {
		t.Fatalf("%d samples for %d scheduled requests", len(ph.Samples), len(schedule))
	}
	// Request 2 starts on time at 20 ms and ends at 70 ms. Requests 3..6
	// were due at 30..60 ms and start back to back from 70 ms.
	want := []struct{ lateness, latency time.Duration }{
		{0, 1 * time.Millisecond},
		{0, 1 * time.Millisecond},
		{0, 50 * time.Millisecond},
		{40 * time.Millisecond, 41 * time.Millisecond},
		{31 * time.Millisecond, 32 * time.Millisecond},
		{22 * time.Millisecond, 23 * time.Millisecond},
		{13 * time.Millisecond, 14 * time.Millisecond},
		{4 * time.Millisecond, 5 * time.Millisecond},
	}
	for i, s := range ph.Samples {
		if s.Index != i || s.Due != schedule[i] {
			t.Fatalf("sample %d is request %d due %v", i, s.Index, s.Due)
		}
		if s.lateness() != want[i].lateness || s.latency() != want[i].latency {
			t.Errorf("request %d: lateness %v latency %v, want %v and %v", i, s.lateness(), s.latency(), want[i].lateness, want[i].latency)
		}
	}
	if got := ph.withinLimit(30 * time.Millisecond); got != 5 {
		t.Errorf("%d requests within 30 ms of due, want 5 (requests 2, 3 and 4 miss)", got)
	}
	if ph.Wall != 75*time.Millisecond {
		t.Errorf("phase wall %v, want 75ms", ph.Wall)
	}
}

func TestClosedLoopStopsAtDeadlineOrCap(t *testing.T) {
	fc := &fakeClock{t: time.Unix(0, 0)}
	op := func(_, _ int) (float64, error) { fc.advance(10 * time.Millisecond); return 0, nil }
	if ph := runClosed(fc.clock(), 1, 95*time.Millisecond, 0, op); len(ph.Samples) != 10 {
		t.Errorf("95 ms of 10 ms operations ran %d, want 10 (the one in flight finishes)", len(ph.Samples))
	}
	if ph := runClosed(fc.clock(), 1, time.Second, 3, op); len(ph.Samples) != 3 {
		t.Errorf("cap of 3 ran %d operations", len(ph.Samples))
	}
}

func TestFailedOperationsMissEverything(t *testing.T) {
	fc := &fakeClock{t: time.Unix(0, 0)}
	ph := runClosed(fc.clock(), 1, time.Second, 4, func(_, i int) (float64, error) {
		fc.advance(time.Millisecond)
		if i == 1 {
			return 0.5, errors.New("refused")
		}
		return 0.001, nil
	})
	if ph.failed() != 1 || len(ph.ok()) != 3 {
		t.Fatalf("failed %d ok %d, want 1 and 3", ph.failed(), len(ph.ok()))
	}
	if got := ph.withinLimit(time.Hour); got != 3 {
		t.Errorf("a failed operation counted as within the limit: %d", got)
	}
	if got := ph.maxErr(); got != 0.001 {
		t.Errorf("maxErr %g took the failed operation's error", got)
	}
}

func TestCheckLogits(t *testing.T) {
	want := []float64{0.1, 0.9, 0.3}
	got := []float64{0.1001, 0.9, 0.3, 7} // the slots past the logits hold garbage
	if e, err := checkLogits(got, want); err != nil || math.Abs(e-0.0001) > 1e-12 {
		t.Errorf("close logits: err %v, maxErr %g", err, e)
	}
	// The plaintext network itself separates classes 1 and 2 by 1e-4: which
	// one decryption lands on says nothing about the ciphertext arithmetic.
	if _, err := checkLogits([]float64{0.1, 0.30004, 0.3001}, []float64{0.1, 0.3001, 0.3}); err != nil {
		t.Errorf("plaintext tie: %v", err)
	}
	for _, c := range []struct {
		name      string
		got, want []float64
	}{
		{"off by more than the tolerance", []float64{0.1, 0.85, 0.3}, want},
		{"different class on a clear plaintext decision", []float64{0.1, 0.299, 0.3}, []float64{0.1, 0.305, 0.3}},
		{"NaN", []float64{0.1, math.NaN(), 0.3}, want},
		{"too few logits", []float64{0.1, 0.9}, want},
	} {
		if _, err := checkLogits(c.got, c.want); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	if b := precisionBits(0); b != maxPrecisionBits {
		t.Errorf("exact match reads %g bits", b)
	}
	if b := precisionBits(1.0 / 1024); b != 10 {
		t.Errorf("error 2^-10 reads %g bits", b)
	}
}

// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] and
// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25] (Python
// extrapolates at the ends; the driver uses it, so we match it).
func TestQuartilesMatchPython(t *testing.T) {
	if q1, q3 := quartiles([]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9}); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g, %g", q1, q3)
	}
	if q1, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles(1,2) = %g, %g", q1, q3)
	}
	if got := relativeSpread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("relativeSpread(1..10) = %g, want 5.5/5.5", got)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "latency_ms_p50", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "throughput_per_s", Better: "higher", Bound: 0.10}
	tight := []float64{100, 100.5, 99.5, 100.2}
	for _, c := range []struct {
		name string
		m    metricSpec
		base []float64
		cand []float64
		want string
	}{
		{"slower by 20 %", lower, tight, []float64{120, 121, 119, 120}, "worse"},
		{"slower by 5 %", lower, tight, []float64{105, 105, 105, 105}, "within-bound"},
		{"faster", lower, tight, []float64{50, 50, 50, 50}, "within-bound"},
		{"throughput down 20 %", higher, tight, []float64{80, 80, 80, 80}, "worse"},
		{"throughput up", higher, tight, []float64{130, 130, 130, 130}, "within-bound"},
		{"too noisy to say", lower, []float64{80, 100, 120, 140}, []float64{130, 131, 129, 130}, "unresolved"},
		{"absolute bound of zero", metricSpec{Better: "lower", Abs: true}, []float64{0, 0}, []float64{0.01, 0.01}, "worse"},
	} {
		if got, _, _ := verdict(c.m, c.base, c.cand); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareRefusesDifferentHosts(t *testing.T) {
	dir := t.TempDir()
	host := describeHost()
	set := func(name string, h hostInfo, latency float64) string {
		rs := resultSet{Host: h}
		for _, w := range workloads {
			r := newResult(w.Name, runConfig{Seed: 1, Seconds: 1})
			for _, m := range untracedSpecs {
				r.Metrics[m.Name] = 1
			}
			r.Metrics["failed_share"] = 0
			r.Metrics["latency_ms_p50"] = latency
			rs.Runs = append(rs.Runs, r)
		}
		path := filepath.Join(dir, name)
		if err := writeJSON(path, rs); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := set("base.json", host, 100)
	same := set("same.json", host, 104)
	slow := set("slow.json", host, 150)
	other := host
	other.CPUModel += " (another machine)"
	foreign := set("foreign.json", other, 100)

	var out, errs strings.Builder
	if code := runCompare([]string{base, same}, false, &out, &errs); code != 0 {
		t.Errorf("4 %% slower on the same host: exit %d\n%s%s", code, out.String(), errs.String())
	}
	out.Reset()
	if code := runCompare([]string{base, slow}, false, &out, &errs); code != 1 || !strings.Contains(out.String(), "worse") {
		t.Errorf("50 %% slower: exit %d\n%s", code, out.String())
	}
	errs.Reset()
	if code := runCompare([]string{base, foreign}, false, &out, &errs); code != 2 || !strings.Contains(errs.String(), "cpu_model") {
		t.Errorf("different hosts: exit %d, said %q", code, errs.String())
	}
	if code := runCompare([]string{base, foreign}, true, &out, &errs); code != 0 {
		t.Errorf("-any-host: exit %d", code)
	}
	if code := runCompare([]string{base}, false, &out, &errs); code != 2 {
		t.Errorf("one file: exit %d", code)
	}
}

package mlaas

import (
	"testing"
	"time"
)

// fakeClock drives a breaker through time deterministically.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newClockedBreaker(cfg BreakerConfig) (*Breaker, *fakeClock) {
	b := NewBreaker(cfg)
	clk := &fakeClock{t: time.Unix(1000, 0)}
	b.now = clk.now
	return b, clk
}

// TestBreakerStateMachine walks the classic closed → open → half-open →
// open → half-open → closed cycle with a deterministic clock.
func TestBreakerStateMachine(t *testing.T) {
	b, clk := newClockedBreaker(BreakerConfig{Threshold: 3, Cooldown: time.Second, Seed: 7})

	// Failures below the threshold keep the breaker closed.
	for i := 0; i < 2; i++ {
		if !b.Allow() {
			t.Fatalf("closed breaker refused request %d", i)
		}
		b.OnFailure()
	}
	if st := b.State(); st != breakerClosed {
		t.Fatalf("state after 2 failures = %s, want closed", st)
	}
	// The third consecutive failure trips it.
	b.OnFailure()
	if st := b.State(); st != breakerOpen {
		t.Fatalf("state after threshold = %s, want open", st)
	}
	if b.Allow() {
		t.Fatal("open breaker allowed a request before its cooldown")
	}
	// Past the (jittered ≤ 1.2×) cooldown the breaker grants exactly one
	// half-open probe.
	clk.advance(1300 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("breaker refused the half-open probe after cooldown")
	}
	if st := b.State(); st != breakerHalfOpen {
		t.Fatalf("state during probe = %s, want half-open", st)
	}
	if b.Allow() {
		t.Fatal("half-open breaker allowed a second concurrent probe")
	}
	// A failed probe re-opens with a doubled cooldown: still refusing at
	// 1.3s (past a single cooldown even with max jitter), probing again
	// after 2.4s more.
	b.OnFailure()
	if st := b.State(); st != breakerOpen {
		t.Fatalf("state after failed probe = %s, want open", st)
	}
	clk.advance(1300 * time.Millisecond)
	if b.Allow() {
		t.Fatal("breaker probed after a single cooldown despite the doubling")
	}
	clk.advance(1200 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("breaker refused the probe after the doubled cooldown")
	}
	// A successful probe collapses everything back to closed.
	b.OnSuccess()
	if st := b.State(); st != breakerClosed {
		t.Fatalf("state after successful probe = %s, want closed", st)
	}
	if !b.Allow() {
		t.Fatal("closed breaker refused traffic after recovery")
	}
	// The close forgot the old failures: two more stay below the threshold.
	b.OnFailure()
	b.OnFailure()
	if st := b.State(); st != breakerClosed {
		t.Fatalf("state after 2 post-recovery failures = %s, want closed", st)
	}
}

// TestBreakerDeterministicSchedule: two breakers with equal configs,
// driven through the same failure sequence, schedule their probes at the
// same instants — a whole failure scenario replays from its config.
func TestBreakerDeterministicSchedule(t *testing.T) {
	cfg := BreakerConfig{Threshold: 1, Cooldown: time.Second, Seed: 42}
	b1, clk1 := newClockedBreaker(cfg)
	b2, clk2 := newClockedBreaker(cfg)
	for cycle := 0; cycle < 5; cycle++ {
		b1.OnFailure()
		b2.OnFailure()
		if !b1.probeAt.Equal(b2.probeAt) {
			t.Fatalf("cycle %d: probe schedules diverged: %v vs %v", cycle, b1.probeAt, b2.probeAt)
		}
		step := b1.probeAt.Sub(clk1.t) + time.Millisecond
		clk1.advance(step)
		clk2.advance(step)
		if !b1.Allow() || !b2.Allow() {
			t.Fatalf("cycle %d: breaker refused its scheduled probe", cycle)
		}
	}
}

// TestBreakerCooldownDoublesAndCaps: consecutive open cycles double the
// cooldown up to MaxCooldown (within the ±20% jitter band).
func TestBreakerCooldownDoublesAndCaps(t *testing.T) {
	cfg := BreakerConfig{Threshold: 1, Cooldown: time.Second, MaxCooldown: 4 * time.Second, Seed: 9}
	b, clk := newClockedBreaker(cfg)
	want := []time.Duration{time.Second, 2 * time.Second, 4 * time.Second, 4 * time.Second, 4 * time.Second}
	for i, base := range want {
		b.OnFailure() // trips (threshold 1) or fails the probe
		cooldown := b.probeAt.Sub(clk.t)
		lo := time.Duration(float64(base) * 0.8)
		hi := time.Duration(float64(base) * 1.2)
		if cooldown < lo || cooldown > hi {
			t.Fatalf("cycle %d: cooldown %v outside [%v, %v]", i, cooldown, lo, hi)
		}
		clk.advance(cooldown + time.Millisecond)
		if !b.Allow() {
			t.Fatalf("cycle %d: probe refused", i)
		}
	}
}

// TestBreakerAbandonReleasesProbe: a probe whose outcome was never
// learned (hedge loser) must not wedge the breaker — the next caller may
// probe immediately.
func TestBreakerAbandonReleasesProbe(t *testing.T) {
	b, clk := newClockedBreaker(BreakerConfig{Threshold: 1, Cooldown: time.Second, Seed: 3})
	b.OnFailure()
	clk.advance(2 * time.Second)
	if !b.Allow() {
		t.Fatal("probe refused after cooldown")
	}
	b.OnAbandon()
	if st := b.State(); st != breakerOpen {
		t.Fatalf("state after abandoned probe = %s, want open", st)
	}
	if !b.Allow() {
		t.Fatal("breaker refused a fresh probe after the previous one was abandoned")
	}
	b.OnSuccess()
	if st := b.State(); st != breakerClosed {
		t.Fatalf("state after successful re-probe = %s, want closed", st)
	}
}

// TestBreakerAbandonOutsideProbeIsNoop: abandoning when no probe is
// outstanding must not disturb a closed breaker.
func TestBreakerAbandonOutsideProbeIsNoop(t *testing.T) {
	b, _ := newClockedBreaker(BreakerConfig{})
	b.OnAbandon()
	if st := b.State(); st != breakerClosed {
		t.Fatalf("state after stray abandon = %s, want closed", st)
	}
}

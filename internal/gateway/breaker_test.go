package gateway

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

// fakeClock drives a breaker through time deterministically.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newClockedBreaker(threshold int, cooldown time.Duration) (*breaker, *fakeClock) {
	b := newBreaker(threshold, cooldown)
	clk := &fakeClock{t: time.Unix(1000, 0)}
	b.now = clk.now
	return b, clk
}

// TestBreakerStateMachine walks the classic closed → open → half-open →
// open → half-open → closed cycle with a deterministic clock.
func TestBreakerStateMachine(t *testing.T) {
	b, clk := newClockedBreaker(3, time.Second)

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
	// Inside the jitter band's floor (0.8×) the breaker still refuses;
	// past its ceiling (1.2×) it grants exactly one half-open probe.
	clk.advance(700 * time.Millisecond)
	if b.Allow() {
		t.Fatal("breaker probed before 0.8× its cooldown")
	}
	clk.advance(600 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("breaker refused the half-open probe after cooldown")
	}
	if st := b.State(); st != breakerHalfOpen {
		t.Fatalf("state during probe = %s, want half-open", st)
	}
	if b.Allow() {
		t.Fatal("half-open breaker allowed a second concurrent probe")
	}
	// A failed probe re-opens with the same cooldown: refusing at 0.7 s,
	// probing again by 1.3 s.
	b.OnFailure()
	if st := b.State(); st != breakerOpen {
		t.Fatalf("state after failed probe = %s, want open", st)
	}
	clk.advance(700 * time.Millisecond)
	if b.Allow() {
		t.Fatal("re-opened breaker probed before 0.8× its cooldown")
	}
	clk.advance(600 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("breaker refused the probe after the cooldown")
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

// TestBreakerDeterministicSchedule: two breakers driven through the same
// failure sequence schedule their probes at the same instants, each one
// cooldown ±20% after its trip — a whole failure scenario replays.
func TestBreakerDeterministicSchedule(t *testing.T) {
	b1, clk1 := newClockedBreaker(1, time.Second)
	b2, clk2 := newClockedBreaker(1, time.Second)
	for cycle := 0; cycle < 5; cycle++ {
		b1.OnFailure()
		b2.OnFailure()
		if !b1.probeAt.Equal(b2.probeAt) {
			t.Fatalf("cycle %d: probe schedules diverged: %v vs %v", cycle, b1.probeAt, b2.probeAt)
		}
		if d := b1.probeAt.Sub(clk1.t); d < 800*time.Millisecond || d > 1200*time.Millisecond {
			t.Fatalf("cycle %d: cooldown %v outside [800ms, 1.2s]", cycle, d)
		}
		step := b1.probeAt.Sub(clk1.t) + time.Millisecond
		clk1.advance(step)
		clk2.advance(step)
		if !b1.Allow() || !b2.Allow() {
			t.Fatalf("cycle %d: breaker refused its scheduled probe", cycle)
		}
	}
}

// TestBreakerLifecycle walks a shard's breaker through the full state
// machine as the gateway's dials drive it: closed → open at the threshold
// → one probe only after the cooldown → re-open on probe failure, with
// the cooldown fixed rather than doubled → closed on probe success, old
// failures forgotten.
func TestBreakerLifecycle(t *testing.T) {
	const cooldown = 500 * time.Millisecond // jittered to [400, 600] ms
	live := echoShard(t, []byte("pong"))
	refuse := func(context.Context) (net.Conn, error) { return nil, errors.New("refused") }

	var mu sync.Mutex
	dials := 0
	dialFn := refuse
	setDial := func(f func(context.Context) (net.Conn, error)) {
		mu.Lock()
		dialFn = f
		mu.Unlock()
	}
	dialCount := func() int {
		mu.Lock()
		defer mu.Unlock()
		return dials
	}
	g := New(Config{BreakerThreshold: 3, BreakerCooldown: cooldown},
		Shard{Name: "a", Dial: func(ctx context.Context) (net.Conn, error) {
			mu.Lock()
			dials++
			f := dialFn
			mu.Unlock()
			return f(ctx)
		}})
	req := []byte{1, 0, 0, 0}
	expectBusy := func(step string) {
		t.Helper()
		if st, msg := readFailure(t, bytes.NewReader(handleRaw(t, g, req))); st != 3 {
			t.Fatalf("%s: status %d (%s), want busy", step, st, msg)
		}
	}

	for i := 0; i < 2; i++ {
		expectBusy("failing dial below threshold")
	}
	if s := g.breakerState("a"); s != "closed" {
		t.Fatalf("state %s before threshold", s)
	}
	expectBusy("failing dial at threshold")
	if s := g.breakerState("a"); s != "open" {
		t.Fatalf("state %s at threshold", s)
	}
	expectBusy("open breaker")
	if n := dialCount(); n != 3 {
		t.Fatalf("open breaker dialed inside the cooldown: %d dials, want 3", n)
	}

	// Past the cooldown one probe dials; hold it in the dial so a second
	// request arrives while it is in flight.
	time.Sleep(cooldown * 13 / 10)
	release := make(chan struct{})
	setDial(func(ctx context.Context) (net.Conn, error) {
		<-release
		return refuse(ctx)
	})
	probe := make(chan []byte)
	go func() {
		srv, cli := net.Pipe()
		go g.Handle(srv)
		cli.Write(req) //nolint:errcheck // a failed write surfaces as an empty response
		resp, _ := io.ReadAll(cli)
		cli.Close()
		probe <- resp
	}()
	for dialCount() != 4 {
		time.Sleep(time.Millisecond)
	}
	if s := g.breakerState("a"); s != "half-open" {
		t.Fatalf("state %s during the probe", s)
	}
	expectBusy("second concurrent probe")
	if n := dialCount(); n != 4 {
		t.Fatalf("second concurrent probe dialed: %d dials, want 4", n)
	}

	// Probe fails: re-open, cooldown restarts.
	close(release)
	if st, msg := readFailure(t, bytes.NewReader(<-probe)); st != 3 {
		t.Fatalf("failed probe: status %d (%s), want busy", st, msg)
	}
	if s := g.breakerState("a"); s != "open" {
		t.Fatalf("state %s after a failed probe", s)
	}
	expectBusy("re-opened breaker")
	if n := dialCount(); n != 4 {
		t.Fatalf("re-opened breaker dialed inside the cooldown: %d dials, want 4", n)
	}

	// The gateway's cooldown does not double (a doubled one would still
	// refuse here): the next probe succeeds and closes the breaker.
	time.Sleep(cooldown * 13 / 10)
	setDial(func(ctx context.Context) (net.Conn, error) {
		var d net.Dialer
		return d.DialContext(ctx, "tcp", live)
	})
	if resp := handleRaw(t, g, req); string(resp) != "pong" {
		t.Fatalf("successful probe: response %q, want pong", resp)
	}
	if s := g.breakerState("a"); s != "closed" {
		t.Fatalf("state %s after probe success", s)
	}

	// Failures forgotten: two more stay below the threshold.
	setDial(refuse)
	for i := 0; i < 2; i++ {
		expectBusy("failing dial after recovery")
	}
	if s := g.breakerState("a"); s != "closed" {
		t.Fatal("old failures survived the close")
	}
}

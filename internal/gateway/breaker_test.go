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

// TestBreakerLifecycle walks a shard's dial breaker through the full
// state machine as the gateway drives it: closed → open at the threshold
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
	if s := g.BreakerState("a"); s != "closed" {
		t.Fatalf("state %s before threshold", s)
	}
	expectBusy("failing dial at threshold")
	if s := g.BreakerState("a"); s != "open" {
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
	if s := g.BreakerState("a"); s != "half-open" {
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
	if s := g.BreakerState("a"); s != "open" {
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
	if s := g.BreakerState("a"); s != "closed" {
		t.Fatalf("state %s after probe success", s)
	}

	// Failures forgotten: two more stay below the threshold.
	setDial(refuse)
	for i := 0; i < 2; i++ {
		expectBusy("failing dial after recovery")
	}
	if s := g.BreakerState("a"); s != "closed" {
		t.Fatal("old failures survived the close")
	}
}

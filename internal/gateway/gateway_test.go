package gateway

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"testing"
	"time"

	"fxhenn/internal/faultnet"
	"fxhenn/internal/mlaas"
	"fxhenn/internal/telemetry"
)

// readFailure parses the protocol's failure response: status byte, then
// a uint32-length message.
func readFailure(t *testing.T, r io.Reader) (byte, string) {
	t.Helper()
	var st [1]byte
	if _, err := io.ReadFull(r, st[:]); err != nil {
		t.Fatalf("reading status: %v", err)
	}
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		t.Fatalf("reading message length: %v", err)
	}
	msg := make([]byte, binary.LittleEndian.Uint32(lenBuf[:]))
	if _, err := io.ReadFull(r, msg); err != nil {
		t.Fatalf("reading message: %v", err)
	}
	return st[0], string(msg)
}

// handleRaw runs one raw byte stream through Handle over a TCP pair and
// returns the gateway's response bytes.
func handleRaw(t *testing.T, g *Gateway, request []byte) []byte {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		conn, err := l.Accept()
		if err != nil {
			return
		}
		g.Handle(conn)
	}()
	cli, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.Write(request); err != nil {
		t.Fatal(err)
	}
	// Half-close: the gateway sees EOF after the request instead of
	// waiting out its IO deadline.
	cli.(*net.TCPConn).CloseWrite() //nolint:errcheck
	resp, _ := io.ReadAll(cli)
	<-done
	return resp
}

// TestGatewayEmptyFleetRefusesTyped: with no shards at all, a request is
// refused StatusBusy in the protocol's own framing and counted in the
// refused metric.
func TestGatewayEmptyFleetRefusesTyped(t *testing.T) {
	reg := telemetry.NewRegistry()
	g := New(Config{Metrics: reg})
	// Four non-magic bytes: an untenanted request's ciphertext count.
	resp := handleRaw(t, g, []byte{1, 0, 0, 0})
	st, msg := readFailure(t, bytes.NewReader(resp))
	if st != 3 { // mlaas.StatusBusy
		t.Fatalf("status %d (%s), want busy", st, msg)
	}
	m := reg.Snapshot().Family(MetricRefused).Metric()
	if m == nil || m.Value != 1 {
		t.Fatalf("refused metric = %+v, want 1", m)
	}
}

// TestGatewayTruncatedPrefix: a client that dies mid-prefix gets a typed
// bad-request, not a hang.
func TestGatewayTruncatedPrefix(t *testing.T) {
	g := New(Config{}, Shard{Name: "a", Addr: "127.0.0.1:1"})
	resp := handleRaw(t, g, []byte{0x31}) // one lonely byte
	st, _ := readFailure(t, bytes.NewReader(resp))
	if st != 1 { // mlaas.StatusBadRequest
		t.Fatalf("status %d, want bad-request", st)
	}
}

// TestGatewayDeadShardsRefuseAfterBreaker: every dial fails, the fleet
// is exhausted, the client gets a typed busy refusal, and both breakers
// record the failures.
func TestGatewayDeadShardsRefuseAfterBreaker(t *testing.T) {
	reg := telemetry.NewRegistry()
	// Ports 1 and 2: nothing listens there.
	g := New(Config{BreakerThreshold: 1, Metrics: reg},
		Shard{Name: "a", Addr: "127.0.0.1:1"},
		Shard{Name: "b", Addr: "127.0.0.1:2"})
	resp := handleRaw(t, g, []byte{1, 0, 0, 0})
	st, msg := readFailure(t, bytes.NewReader(resp))
	if st != 3 {
		t.Fatalf("status %d (%s), want busy", st, msg)
	}
	for _, name := range []string{"a", "b"} {
		if s := g.BreakerState(name); s != "open" {
			t.Fatalf("shard %s breaker %s after a failed dial at threshold 1", name, s)
		}
	}
	// With both breakers open, the next request is refused without
	// dialing at all.
	resp = handleRaw(t, g, []byte{1, 0, 0, 0})
	if st, _ := readFailure(t, bytes.NewReader(resp)); st != 3 {
		t.Fatalf("status %d with open breakers, want busy", st)
	}
	m := reg.Snapshot().Family(MetricRefused).Metric()
	if m == nil || m.Value != 2 {
		t.Fatalf("refused metric = %+v, want 2", m)
	}
}

// echoShard is a minimal upstream: it consumes the request bytes and
// writes a canned response, exercising the splice without any crypto.
func echoShard(t *testing.T, response []byte) (addr string) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				buf := make([]byte, 64)
				conn.Read(buf) //nolint:errcheck // any prefix is enough
				conn.Write(response)
			}(conn)
		}
	}()
	return l.Addr().String()
}

// homedOn returns a tenant whose home shard is shard.
func homedOn(t *testing.T, g *Gateway, shard string) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		k := fmt.Sprintf("tenant-%d", i)
		if home, _ := g.ring.Pick(k); home == shard {
			return k
		}
	}
	t.Fatalf("no tenant hashes to shard %s", shard)
	return ""
}

// routedRequest is a minimal request routed to tenant: the route frame
// ("1TNT", u16 length, name, u64 generation 0), then a count word.
func routedRequest(tenant string) []byte {
	var req bytes.Buffer
	req.Write([]byte{0x31, 0x54, 0x4E, 0x54})
	binary.Write(&req, binary.LittleEndian, uint16(len(tenant)))
	req.WriteString(tenant)
	binary.Write(&req, binary.LittleEndian, uint64(0))
	req.Write([]byte{1, 0, 0, 0})
	return req.Bytes()
}

// TestGatewayRerouteMetrics: a tenant whose home shard is dead lands on
// the survivor; the routed and reroutes counters attribute it to the
// serving shard.
func TestGatewayRerouteMetrics(t *testing.T) {
	reg := telemetry.NewRegistry()
	live := echoShard(t, []byte("pong"))
	g := New(Config{BreakerThreshold: 1, Metrics: reg},
		Shard{Name: "dead", Addr: "127.0.0.1:1"},
		Shard{Name: "live", Addr: live})

	resp := handleRaw(t, g, routedRequest(homedOn(t, g, "dead")))
	if !bytes.Equal(resp, []byte("pong")) {
		t.Fatalf("spliced response %q, want pong", resp)
	}
	snap := reg.Snapshot()
	if m := snap.Family(MetricRouted).Metric(telemetry.L("shard", "live")); m == nil || m.Value != 1 {
		t.Fatalf("routed{live} = %+v, want 1", m)
	}
	if m := snap.Family(MetricReroutes).Metric(telemetry.L("shard", "live")); m == nil || m.Value != 1 {
		t.Fatalf("reroutes{live} = %+v, want 1", m)
	}
	if g.BreakerState("dead") != "open" {
		t.Fatalf("dead shard breaker %s, want open", g.BreakerState("dead"))
	}
}

// TestGatewayPrefixWriteFailureReroutes: a shard that accepts the dial but
// fails the write of the peeked prefix has read nothing of the request,
// so the gateway treats it like a failed dial — the breaker hears about
// it and the next candidate serves the request.
func TestGatewayPrefixWriteFailureReroutes(t *testing.T) {
	live := echoShard(t, []byte("pong"))
	g := New(Config{BreakerThreshold: 1},
		Shard{Name: "broken", Dial: func(ctx context.Context) (net.Conn, error) {
			var d net.Dialer
			conn, err := d.DialContext(ctx, "tcp", live)
			if err != nil {
				return nil, err
			}
			return faultnet.New(conn, faultnet.Config{ResetAfterWrites: 1}), nil
		}},
		Shard{Name: "live", Addr: live})

	resp := handleRaw(t, g, routedRequest(homedOn(t, g, "broken")))
	if !bytes.Equal(resp, []byte("pong")) {
		t.Fatalf("response %q, want the live shard's pong", resp)
	}
	if st := g.BreakerState("broken"); st != "open" {
		t.Fatalf("broken shard breaker %s after a failed prefix write at threshold 1, want open", st)
	}
}

// slowShard answers every request with an OK status byte, then — after a
// pause long enough for the client to give up — 256 KiB more, then EOF.
// It serves one connection and reports whether its writes all succeeded.
func slowShard(t *testing.T) (addr string, wrote <-chan error) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	ch := make(chan error, 1)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			ch <- err
			return
		}
		defer conn.Close()
		go io.Copy(io.Discard, conn) //nolint:errcheck // drain the request
		_, err = conn.Write([]byte{0})
		time.Sleep(200 * time.Millisecond)
		for i := 0; err == nil && i < 8; i++ {
			_, err = conn.Write(make([]byte, 32<<10))
		}
		ch <- err
	}()
	return l.Addr().String(), ch
}

// TestGatewayClientAbandonKeepsBreakerClosed: a client that gives up
// mid-response — closing its connection, or letting its context deadline
// expire — says nothing about the shard. The gateway drains the shard to
// EOF for its verdict, and the breaker stays closed even at threshold 1.
func TestGatewayClientAbandonKeepsBreakerClosed(t *testing.T) {
	base := newBaseCeremony()
	for _, mode := range []string{"close", "deadline"} {
		t.Run(mode, func(t *testing.T) {
			addr, wrote := slowShard(t)
			g := New(Config{BreakerThreshold: 1}, Shard{Name: "a", Addr: addr})
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			handled := make(chan struct{})
			go func() {
				defer close(handled)
				if conn, err := l.Accept(); err == nil {
					g.Handle(conn)
				}
			}()
			cli, err := net.Dial("tcp", l.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			if mode == "close" {
				cli.Write([]byte{1, 0, 0, 0}) //nolint:errcheck
				if _, err := io.ReadFull(cli, make([]byte, 1)); err != nil {
					t.Fatalf("reading the status byte: %v", err)
				}
			} else {
				cl := mlaas.NewClient(base.params, base.henet, base.pk, base.sk, 7)
				ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
				_, err := cl.Infer(ctx, cli, clusterImage(base.pnet, 5))
				cancel()
				if !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, os.ErrDeadlineExceeded) {
					t.Fatalf("client error %v, want its own deadline", err)
				}
			}
			cli.Close()

			select {
			case <-handled:
			case <-time.After(10 * time.Second):
				t.Fatal("gateway never finished the abandoned exchange")
			}
			if err := <-wrote; err != nil {
				t.Fatalf("the gateway stopped draining the shard: %v", err)
			}
			if st := g.BreakerState("a"); st != "closed" {
				t.Fatalf("breaker %s after a client abandoned a healthy exchange, want closed", st)
			}
		})
	}
}

// TestGatewayMembershipErrors pins the fleet-management edges: unnamed
// and duplicate shards, removing an absent shard, probing an absent
// breaker.
func TestGatewayMembershipErrors(t *testing.T) {
	g := New(Config{})
	if err := g.AddShard(Shard{Addr: "x"}); err == nil {
		t.Fatal("unnamed shard accepted")
	}
	if err := g.AddShard(Shard{Name: "a", Addr: "x"}); err != nil {
		t.Fatal(err)
	}
	if err := g.AddShard(Shard{Name: "a", Addr: "y"}); err == nil {
		t.Fatal("duplicate shard accepted")
	}
	ctx := context.Background()
	if err := g.RemoveShard(ctx, "ghost"); err == nil {
		t.Fatal("removing an absent shard succeeded")
	}
	if st := g.BreakerState("ghost"); st != "absent" {
		t.Fatalf("absent shard breaker %q", st)
	}
	if err := g.RemoveShard(ctx, "a"); err != nil {
		t.Fatalf("removing an idle shard: %v", err)
	}
	if n := len(g.Shards()); n != 0 {
		t.Fatalf("fleet size %d after removal", n)
	}
}

// TestGatewayShutdown: Serve returns ErrGatewayClosed, a post-shutdown
// Serve refuses, and a post-shutdown Handle sends shutting-down.
func TestGatewayShutdown(t *testing.T) {
	g := New(Config{}, Shard{Name: "a", Addr: "127.0.0.1:1"})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- g.Serve(l) }()
	time.Sleep(10 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := g.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-serveErr:
		if !errors.Is(err, ErrGatewayClosed) {
			t.Fatalf("Serve returned %v, want ErrGatewayClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after Shutdown")
	}
	l2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Serve(l2); !errors.Is(err, ErrGatewayClosed) {
		t.Fatalf("post-shutdown Serve returned %v", err)
	}
	resp := handleRaw(t, g, []byte{1, 0, 0, 0})
	if st, _ := readFailure(t, bytes.NewReader(resp)); st != 4 { // mlaas.StatusShuttingDown
		t.Fatalf("post-shutdown Handle status %d, want shutting-down", st)
	}
}

// TestGatewayShutdownEndsActiveSplices: Shutdown closes the shard side
// of an active splice as well as the client side, so Serve returns at
// once instead of waiting out the shard's response under IOTimeout.
func TestGatewayShutdownEndsActiveSplices(t *testing.T) {
	shardConns := make(chan net.Conn, 1)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		shardConns <- conn
		io.Copy(io.Discard, conn) //nolint:errcheck // never responds
	}()
	g := New(Config{IOTimeout: 30 * time.Second}, Shard{Name: "slow", Addr: l.Addr().String()})
	gl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- g.Serve(gl) }()

	cli, err := net.Dial("tcp", gl.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.Write([]byte{1, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	defer (<-shardConns).Close()

	if err := g.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-serveErr:
		if !errors.Is(err, ErrGatewayClosed) {
			t.Fatalf("Serve returned %v, want ErrGatewayClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve still waiting on an active splice after Shutdown")
	}
}

// TestGatewayRollingDrainWaitsForSplices: RemoveShard blocks while the
// shard still holds an active splice and returns a typed error when the
// drain deadline cuts it off.
func TestGatewayRollingDrainWaitsForSplices(t *testing.T) {
	// A shard that never responds keeps the splice open.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			io.Copy(io.Discard, conn) //nolint:errcheck
		}
	}()
	g := New(Config{}, Shard{Name: "slow", Addr: l.Addr().String()})

	gl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go g.Serve(gl) //nolint:errcheck
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		g.Shutdown(ctx) //nolint:errcheck
	}()

	cli, err := net.Dial("tcp", gl.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.Write([]byte{1, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	// Wait until the splice is active.
	deadline := time.Now().Add(5 * time.Second)
	for {
		g.mu.Lock()
		st := g.shards["slow"]
		st.mu.Lock()
		active := st.active
		st.mu.Unlock()
		g.mu.Unlock()
		if active > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("splice never became active")
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	err = g.RemoveShard(ctx, "slow")
	if err == nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain with a live splice returned %v, want deadline error", err)
	}
}

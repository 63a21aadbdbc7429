package mlaas

import (
	"context"
	"errors"
	"math"
	"net"
	"testing"
	"time"

	"fxhenn/internal/faultnet"
)

// TestRetryableMidExchangeDeadline is the regression test for the
// InferRetry fix: a server that stalls after the status byte leaves the
// client mid-response when its read deadline trips. That used to be a
// terminal Partial transport error; it must now be retryable, and a
// retry against a healthy connection must succeed.
func TestRetryableMidExchangeDeadline(t *testing.T) {
	fx := newFixture(t)
	fx.client.Timeout = 150 * time.Millisecond

	dials := 0
	dial := func(ctx context.Context) (net.Conn, error) {
		dials++
		cliConn, srvConn := net.Pipe()
		wrapped := srvConn
		faulty := dials == 1
		go func() {
			if faulty {
				// Deliver the status byte (first 1-byte write), stall the
				// ciphertext: the client is now mid-response.
				fc := faultnet.New(srvConn, faultnet.Config{Seed: 13, StallAfterWrites: 1})
				defer fc.Close()
				fx.server.Handle(fc)
				return
			}
			defer wrapped.Close()
			fx.server.Handle(wrapped)
		}()
		return cliConn, nil
	}

	img := randomImage(64)
	want := fx.pnet.Infer(img)

	// First, pin the error classification itself.
	conn, err := dial(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	_, err = fx.client.Infer(context.Background(), conn, img)
	conn.Close()
	var te *TransportError
	if !errors.As(err, &te) || !te.Partial {
		t.Fatalf("err = %v, want a Partial transport error", err)
	}
	if !Retryable(err) {
		t.Fatalf("mid-exchange deadline not retryable: %v", err)
	}

	// Then the end-to-end contract: InferRetry rides through it.
	dials = 0
	got, err := fx.client.InferRetry(context.Background(), dial, img, RetryPolicy{
		MaxAttempts: 3,
		Seed:        6,
		Sleep:       func(ctx context.Context, d time.Duration) error { return nil },
	})
	if err != nil {
		t.Fatalf("InferRetry: %v", err)
	}
	if dials != 2 {
		t.Fatalf("dials = %d, want 2 (one stalled, one clean)", dials)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-2 {
			t.Fatalf("logit %d: %g vs %g", i, got[i], want[i])
		}
	}
}

// TestRetryAfterHintStretchesBackoff: a busy refusal carrying a hint
// makes InferRetry wait at least the hint, not the (shorter) jittered
// backoff.
func TestRetryAfterHintStretchesBackoff(t *testing.T) {
	err := &StatusError{Code: StatusBusy, Msg: withRetryAfterHint("server at capacity", 250*time.Millisecond)}
	hint, ok := RetryAfterHint(err)
	if !ok || hint != 250*time.Millisecond {
		t.Fatalf("hint = %v/%v, want 250ms/true", hint, ok)
	}
	// Absent or malformed suffixes parse as no hint.
	if _, ok := RetryAfterHint(&StatusError{Code: StatusBusy, Msg: "server at capacity"}); ok {
		t.Fatal("hintless message produced a hint")
	}
	if _, ok := RetryAfterHint(&StatusError{Code: StatusBusy, Msg: "x " + retryAfterToken}); ok {
		t.Fatal("digitless suffix produced a hint")
	}
	// Hostile hints clamp at the cap instead of parking the client.
	huge := &StatusError{Code: StatusBusy, Msg: "x " + retryAfterToken + "99999999999999999999"}
	if hint, ok := RetryAfterHint(huge); !ok || hint != maxRetryAfterHint {
		t.Fatalf("hostile hint = %v/%v, want clamp to %v", hint, ok, maxRetryAfterHint)
	}
}

// TestRetryTornResponse: a response torn after the status byte by a
// plain connection failure — no deadline involved, as when a gateway
// cuts off a shard it has given up on — is retried by InferRetry, and
// the fresh attempt succeeds.
func TestRetryTornResponse(t *testing.T) {
	fx := newFixture(t)
	dials := 0
	dial := func(ctx context.Context) (net.Conn, error) {
		dials++
		cliConn, srvConn := net.Pipe()
		go func() {
			defer srvConn.Close()
			fx.server.Handle(srvConn)
		}()
		if dials == 1 {
			// The status byte and a little of the ciphertext arrive, then
			// the link drops.
			return faultnet.New(cliConn, faultnet.Config{Seed: 14, DropAfterReads: 16}), nil
		}
		return cliConn, nil
	}
	img := randomImage(68)
	want := fx.pnet.Infer(img)
	got, err := fx.client.InferRetry(context.Background(), dial, img, RetryPolicy{
		MaxAttempts: 3,
		Seed:        7,
		Sleep:       func(ctx context.Context, d time.Duration) error { return nil },
	})
	if err != nil {
		t.Fatalf("InferRetry: %v", err)
	}
	if dials != 2 || fx.client.Retries != 1 {
		t.Fatalf("dials = %d, retries = %d, want 2 and 1 (one torn, one clean)", dials, fx.client.Retries)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-2 {
			t.Fatalf("logit %d: %g vs %g", i, got[i], want[i])
		}
	}
}

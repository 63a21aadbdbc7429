package mlaas

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strconv"
	"time"

	"fxhenn/internal/cnn"
	"fxhenn/internal/telemetry"
)

// RetryPolicy shapes InferRetry's capped exponential backoff. The zero
// value takes every default; Seed makes the jitter sequence — and with it
// a whole failure scenario — reproducible.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries, the first included.
	// Default 4.
	MaxAttempts int
	// BaseDelay is the backoff before the first retry; each further retry
	// doubles it up to MaxDelay. Defaults 50ms / 2s.
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// Jitter spreads each delay uniformly over ±Jitter·delay so synchronized
	// clients don't re-dogpile a recovering server. Default 0.2.
	Jitter float64
	// Seed drives the jitter sequence deterministically.
	Seed int64
	// Sleep replaces the real clock in tests; nil sleeps for d or until
	// ctx is done.
	Sleep func(ctx context.Context, d time.Duration) error
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 50 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 2 * time.Second
	}
	if p.Jitter <= 0 {
		p.Jitter = 0.2
	}
	if p.Sleep == nil {
		p.Sleep = func(ctx context.Context, d time.Duration) error {
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-t.C:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		}
	}
	return p
}

// backoff returns the delay before retry number retry (0-based):
// min(MaxDelay, BaseDelay·2^retry), jittered by ±Jitter.
func (p RetryPolicy) backoff(retry int, rng *rand.Rand) time.Duration {
	d := p.BaseDelay << uint(retry)
	if d > p.MaxDelay || d <= 0 { // <=0 guards shift overflow
		d = p.MaxDelay
	}
	spread := 1 + p.Jitter*(2*rng.Float64()-1)
	return time.Duration(float64(d) * spread)
}

// Retryable reports whether err can succeed on a fresh attempt:
// StatusBusy, and every *TransportError — a failed dial or write, a
// response cut short at any point by a reset, a deadline or a gateway
// that gave up on its shard, and a CRC-detected corrupt frame. Even a
// response torn mid-way is safe to re-request: inference is idempotent
// and side-effect-free on the server, so a retry wastes at most one
// evaluation, and Infer returns nothing from a partial response. Every
// other refusal is terminal: the same bytes would be refused again.
func Retryable(err error) bool {
	var se *StatusError
	if errors.As(err, &se) {
		return se.Code.Retryable()
	}
	var te *TransportError
	return errors.As(err, &te)
}

// InferRetry runs Infer with capped exponential backoff: dial, exchange,
// and on a retryable failure (see Retryable) close the connection, back
// off with jitter, and dial again. It returns the first terminal error
// unchanged, or the last error annotated with the attempt count when the
// budget runs out.
func (c *Client) InferRetry(ctx context.Context, dial func(context.Context) (net.Conn, error), img *cnn.Tensor, policy RetryPolicy) ([]float64, error) {
	root := c.startClientTrace("infer-retry")
	logits, err := c.inferRetry(ctx, dial, img, policy, root)
	recordClientTrace(c.Flight, root, err)
	return logits, err
}

func (c *Client) inferRetry(ctx context.Context, dial func(context.Context) (net.Conn, error), img *cnn.Tensor, policy RetryPolicy, root *telemetry.Span) ([]float64, error) {
	p := policy.withDefaults()
	rng := rand.New(rand.NewSource(p.Seed))
	var lastErr error
	for attempt := 0; attempt < p.MaxAttempts; attempt++ {
		if attempt > 0 {
			delay := p.backoff(attempt-1, rng)
			// A shedding server's retry-after hint stretches (never
			// shortens) the jittered backoff; RetryAfterHint clamps, so a
			// wild hint cannot park the client for minutes.
			if hint, ok := RetryAfterHint(lastErr); ok && hint > delay {
				delay = hint
			}
			if err := p.Sleep(ctx, delay); err != nil {
				return nil, err
			}
			c.Retries++
		}
		sp := root.StartChild("attempt")
		if sp != nil {
			sp.SetAttr("attempt", strconv.Itoa(attempt))
		}
		conn, err := dial(ctx)
		if err != nil {
			lastErr = fmt.Errorf("dial: %w", err)
			if sp != nil {
				sp.SetAttr("error", lastErr.Error())
				sp.End()
			}
			continue // dial failures are always retryable
		}
		logits, err := c.inferSpan(ctx, conn, img, sp)
		conn.Close()
		if sp != nil {
			if err != nil {
				sp.SetAttr("error", err.Error())
			} else {
				sp.SetAttr("outcome", "ok")
			}
			sp.End()
		}
		if err == nil {
			return logits, nil
		}
		if !Retryable(err) {
			return nil, err
		}
		lastErr = err
	}
	return nil, fmt.Errorf("mlaas: %d attempts exhausted: %w", p.MaxAttempts, lastErr)
}

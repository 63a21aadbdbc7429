package mlaas

import (
	"errors"
	"fmt"
	"strings"
	"time"
)

// Status is the one-byte typed result code the server prefixes every
// response with (wire.go).
type Status byte

const (
	// StatusOK: the request was evaluated; the result ciphertext follows.
	StatusOK Status = 0
	// StatusBadRequest: the request violated the protocol — wrong
	// ciphertext count, malformed or corrupt ciphertext bytes, wrong
	// level — or the client was too slow and tripped a read deadline.
	// Retrying the same bytes will fail the same way.
	StatusBadRequest Status = 1
	// StatusInternal: the server failed while evaluating (a recovered
	// panic in the HE pipeline). The request may or may not be at fault.
	StatusInternal Status = 2
	// StatusBusy: the server's concurrency limit is saturated; the
	// request was rejected before any work. Safe and sensible to retry
	// after a backoff.
	StatusBusy Status = 3
	// StatusShuttingDown: the server is draining and refused the
	// request before any work. Retry against another replica — through
	// a gateway, whose breaker counts the refusal against this shard.
	StatusShuttingDown Status = 4
	// StatusUnknownTenant: the request's routing frame named a tenant the
	// server's registry does not hold. Every honest shard shares the
	// registry, so the refusal is terminal — failover to another replica
	// cannot cure it.
	StatusUnknownTenant Status = 5
)

func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusBadRequest:
		return "bad-request"
	case StatusInternal:
		return "internal"
	case StatusBusy:
		return "busy"
	case StatusShuttingDown:
		return "shutting-down"
	case StatusUnknownTenant:
		return "unknown-tenant"
	default:
		return fmt.Sprintf("status(%d)", byte(s))
	}
}

// Retryable reports whether a fresh attempt of the same request can
// succeed: saturation is transient, and a draining server refused before
// doing any work. A client that dials one server directly spends its
// retries on a shutting-down one until the budget runs out; a client
// behind a gateway reaches another shard once the draining one's breaker
// opens.
func (s Status) Retryable() bool { return s == StatusBusy || s == StatusShuttingDown }

// StatusError is the client-side error for a non-OK server response.
type StatusError struct {
	Code Status
	Msg  string
}

func (e *StatusError) Error() string {
	if e.Msg == "" {
		return fmt.Sprintf("mlaas: server returned %s", e.Code)
	}
	return fmt.Sprintf("mlaas: server returned %s: %s", e.Code, e.Msg)
}

// TransportError wraps a connection-level failure during an exchange.
// Partial records whether any response bytes had been received when the
// failure happened. Either way the request is safe to retry (Retryable):
// the client keeps nothing of a partial response.
type TransportError struct {
	Partial bool
	Err     error
}

func (e *TransportError) Error() string {
	if e.Partial {
		return fmt.Sprintf("mlaas: transport failed mid-response: %v", e.Err)
	}
	return fmt.Sprintf("mlaas: transport failed: %v", e.Err)
}

func (e *TransportError) Unwrap() error { return e.Err }

// retryAfterToken introduces the machine-readable retry-after hint a
// shedding server appends to its StatusBusy messages. Riding inside the
// error string keeps the wire format unchanged: old clients display a
// slightly longer message, new clients parse the suffix and feed it into
// their backoff.
const retryAfterToken = "retry-after-ms="

// withRetryAfterHint appends the hint suffix to a busy message.
func withRetryAfterHint(msg string, d time.Duration) string {
	ms := d.Milliseconds()
	if ms < 1 {
		ms = 1
	}
	return fmt.Sprintf("%s %s%d", msg, retryAfterToken, ms)
}

// RetryAfterHint extracts the server's retry-after hint from a
// *StatusError, if the message carries one. Callers should clamp the
// value before sleeping on it — the string came off the wire.
func RetryAfterHint(err error) (time.Duration, bool) {
	var se *StatusError
	if !errors.As(err, &se) {
		return 0, false
	}
	i := strings.LastIndex(se.Msg, retryAfterToken)
	if i < 0 {
		return 0, false
	}
	rest := se.Msg[i+len(retryAfterToken):]
	var ms int64
	var digits int
	for digits < len(rest) && rest[digits] >= '0' && rest[digits] <= '9' {
		ms = ms*10 + int64(rest[digits]-'0')
		digits++
		if ms > int64(maxRetryAfterHint/time.Millisecond) {
			ms = int64(maxRetryAfterHint / time.Millisecond)
			break
		}
	}
	if digits == 0 {
		return 0, false
	}
	return time.Duration(ms) * time.Millisecond, true
}

// wireError is the server's internal representation of a failure that
// should be reported to the client with a typed status.
type wireError struct {
	status Status
	msg    string
}

func (e *wireError) Error() string { return fmt.Sprintf("%s: %s", e.status, e.msg) }

// Package mlaas implements the machine-learning-as-a-service deployment of
// §I over a real transport: the client packs and encrypts its image locally
// and ships ciphertexts to the server; the server — holding only the model
// weights and the public evaluation keys, never the secret key — evaluates
// the HE-CNN homomorphically and returns the encrypted logits; only the
// client can decrypt. The wire volume it reports is the concrete form of
// the paper's "5-6 orders of magnitude" ciphertext expansion.
//
// The wire format — request header frames, response framings, the CRC
// trailer — is stated once, in wire.go, and every reader and writer of
// it goes through that file's codec. server.go holds the server's
// configuration and connection lifecycle, request.go the one request
// pipeline every framing and tenant shares, client.go the clients.
//
// The serving layer is production-shaped: per-connection I/O deadlines and
// a total request budget, admission scheduling (MaxConcurrent evaluation
// slots fronted by an optional bounded FIFO queue — Config.QueueDepth —
// where requests wait out bursts up to their budget before StatusBusy;
// the default remains fail-fast), per-request panic isolation (a
// malformed ciphertext that blows up deep in the evaluator kills one
// request, not the process), typed wire statuses, and Shutdown(ctx) that drains in-flight
// inferences while refusing new ones with StatusShuttingDown. The client
// side mirrors it: Infer honors a context, and InferRetry adds capped
// exponential backoff with deterministic jitter for retryable failures.
// internal/faultnet drives every one of these paths in the test suite.
//
// Evaluation parallelism: the server owns one shared worker pool
// (Config.Workers) attached to the parameters' ring. Concurrent requests
// and each request's internal limb/digit/rotation fan-out draw from that
// single budget with non-blocking, work-conserving dispatch, and parallel
// evaluation is bit-exact with serial — responses never depend on the
// worker count.
package mlaas

import (
	"context"
	"fmt"
	"io"
	"time"
)

// deadliner is the subset of net.Conn needed for rolling deadlines.
// net.Pipe and *faultnet.Conn implement it too; plain buffers in unit
// tests do not and simply run unbounded.
type deadliner interface {
	SetReadDeadline(time.Time) error
	SetWriteDeadline(time.Time) error
}

// timedRW bumps a rolling per-operation deadline before every read and
// write, clamped to an absolute budget cutoff. It is how one Config
// timeout pair bounds every io.ReadFull and WriteTo in the codec without
// threading deadlines through each call site.
type timedRW struct {
	rw  io.ReadWriter
	d   deadliner // nil when rw cannot carry deadlines
	op  time.Duration
	abs time.Time
}

func newTimedRW(rw io.ReadWriter, op time.Duration, abs time.Time) *timedRW {
	t := &timedRW{rw: rw, op: op, abs: abs}
	if d, ok := rw.(deadliner); ok {
		t.d = d
	}
	return t
}

func (t *timedRW) deadline() time.Time {
	var dl time.Time
	if t.op > 0 {
		dl = time.Now().Add(t.op)
	}
	if !t.abs.IsZero() && (dl.IsZero() || t.abs.Before(dl)) {
		dl = t.abs
	}
	return dl
}

func (t *timedRW) overBudget() error {
	if !t.abs.IsZero() && time.Now().After(t.abs) {
		return fmt.Errorf("request budget exhausted: %w", context.DeadlineExceeded)
	}
	return nil
}

func (t *timedRW) Read(b []byte) (int, error) {
	if err := t.overBudget(); err != nil {
		return 0, err
	}
	if t.d != nil {
		t.d.SetReadDeadline(t.deadline()) //nolint:errcheck
	}
	return t.rw.Read(b)
}

func (t *timedRW) Write(b []byte) (int, error) {
	if err := t.overBudget(); err != nil {
		return 0, err
	}
	if t.d != nil {
		t.d.SetWriteDeadline(t.deadline()) //nolint:errcheck
	}
	return t.rw.Write(b)
}

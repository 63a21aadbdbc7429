package mlaas

// Client-side tracing. A traced request carries its trace context on the
// wire (wire.go); a server with a flight recorder stitches its
// queue/decode/validate/evaluate/encode spans (and the per-layer
// breakdown) under the client's trace ID, so one trace follows the
// request across the process boundary. A server without one parses and
// ignores the context.

import "fxhenn/internal/telemetry"

// startClientTrace begins a client root span when a flight recorder is
// attached; nil otherwise, and every span method no-ops on nil, so the
// untraced path stays allocation-free.
func (c *Client) startClientTrace(name string) *telemetry.Span {
	if c.Flight == nil {
		return nil
	}
	return telemetry.StartTrace(name)
}

// recordClientTrace ends sp and records it into fl, tagging failures so
// the tail sampler always keeps them.
func recordClientTrace(fl *telemetry.FlightRecorder, sp *telemetry.Span, err error) {
	if sp == nil {
		return
	}
	sp.End()
	if fl == nil {
		return
	}
	if err != nil {
		sp.SetAttr("error", err.Error())
		fl.Record(sp, "error")
		return
	}
	fl.Record(sp)
}

package mlaas

// This file is the server-side telemetry: pre-resolved metric handles,
// and the per-request phase trace behind the slow-request log and the
// flight recorder. Handles are resolved once at server
// construction so the request hot path only touches atomics; with
// telemetry disabled (Config.Metrics nil and no slow-log threshold) the
// request path is bit-for-bit the untraced one.

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"fxhenn/internal/hecnn"
	"fxhenn/internal/telemetry"
)

// Metric families exported by the server. Phase labels follow the
// request lifecycle: queue (admission to evaluation slot), decode (wire
// → ciphertexts), validate, evaluate (the HE-CNN), encode (result →
// wire).
const (
	MetricRequestsTotal  = "mlaas_requests_total"  // counter{status}
	MetricPhaseSeconds   = "mlaas_phase_seconds"   // histogram{phase}
	MetricRequestSeconds = "mlaas_request_seconds" // histogram
	MetricInflight       = "mlaas_inflight"        // gauge
	MetricQueueDepth     = "mlaas_queue_depth"     // gauge: waiters in the admission queue
	MetricQueueWait      = "mlaas_queue_wait_seconds"
	MetricSlowRequests   = "mlaas_slow_requests_total"
	MetricLayerSeconds   = "hecnn_layer_seconds"    // histogram{net,layer}
	MetricLayerHOPs      = "hecnn_layer_hops_total" // counter{net,layer}
	MetricLayerKS        = "hecnn_layer_keyswitches_total"
	MetricShedTotal      = "mlaas_shed_total"            // counter: requests refused by the shedder
	MetricEvalEWMA       = "mlaas_eval_ewma_seconds"     // gauge: the shedder's latency estimate
	MetricTenantRequests = "mlaas_tenant_requests_total" // counter{tenant,status}
	MetricResidentBytes  = "mlaas_resident_bytes"        // gauge: bytes the memory plan counts resident
	MetricMemoryLimit    = "mlaas_memory_limit_bytes"    // gauge: the process's soft memory limit
)

// phase indexes the request lifecycle histograms.
type phase int

const (
	phaseQueue phase = iota
	phaseDecode
	phaseValidate
	phaseEvaluate
	phaseEncode
	numPhases
)

func (p phase) String() string {
	return [...]string{"queue", "decode", "validate", "evaluate", "encode"}[p]
}

// layerMetrics is one runtime's pre-resolved per-layer sink, keyed by
// layer name and labelled with the runtime's own network name.
type layerMetrics map[string]layerHandles

type layerHandles struct {
	seconds *telemetry.Histogram
	hops    *telemetry.Counter
	ks      *telemetry.Counter
}

// newLayerMetrics resolves henet's per-layer handles on reg; nil when
// reg is nil.
func newLayerMetrics(reg *telemetry.Registry, henet *hecnn.Network) layerMetrics {
	if reg == nil {
		return nil
	}
	lm := layerMetrics{}
	for _, l := range henet.Layers {
		net, layer := telemetry.L("net", henet.Name), telemetry.L("layer", l.Name())
		lm[l.Name()] = layerHandles{
			seconds: reg.Histogram(MetricLayerSeconds, "per-layer evaluate wall time", nil, net, layer),
			hops:    reg.Counter(MetricLayerHOPs, "per-layer HE operations executed", net, layer),
			ks:      reg.Counter(MetricLayerKS, "per-layer KeySwitch operations executed", net, layer),
		}
	}
	return lm
}

// observe is the hecnn.Tracer sink: one call per completed layer.
func (lm layerMetrics) observe(st hecnn.LayerStat) {
	h, ok := lm[st.Layer]
	if !ok {
		return
	}
	h.seconds.Observe(st.Wall.Seconds())
	h.hops.Add(int64(st.HOPs))
	h.ks.Add(int64(st.KeySwitches))
}

// serverMetrics holds every handle the request path needs, resolved once.
type serverMetrics struct {
	requests [6]*telemetry.Counter // indexed by Status
	phases   [numPhases]*telemetry.Histogram
	request  *telemetry.Histogram
	inflight *telemetry.Gauge
	slow     *telemetry.Counter
	shed     *telemetry.Counter
	evalEWMA *telemetry.Gauge

	// reg backs the lazily-resolved per-tenant counters: tenants appear
	// at runtime (registry registrations), so their handles cannot be
	// resolved at construction like everything above.
	reg      *telemetry.Registry
	tenantMu sync.Mutex
	tenants  map[string]*[6]*telemetry.Counter
}

func newServerMetrics(reg *telemetry.Registry) *serverMetrics {
	if reg == nil {
		return nil
	}
	m := &serverMetrics{reg: reg, tenants: map[string]*[6]*telemetry.Counter{}}
	for st := StatusOK; st <= StatusUnknownTenant; st++ {
		m.requests[st] = reg.Counter(MetricRequestsTotal,
			"completed exchanges by typed wire status", telemetry.L("status", st.String()))
	}
	for p := phase(0); p < numPhases; p++ {
		m.phases[p] = reg.Histogram(MetricPhaseSeconds,
			"request lifecycle phase latency", nil, telemetry.L("phase", p.String()))
	}
	m.request = reg.Histogram(MetricRequestSeconds, "whole-exchange latency", nil)
	m.inflight = reg.Gauge(MetricInflight, "admitted requests currently in flight")
	m.slow = reg.Counter(MetricSlowRequests, "requests over the slow-request threshold")
	m.shed = reg.Counter(MetricShedTotal,
		"requests refused at admission because their deadline was projected unreachable")
	m.evalEWMA = reg.Gauge(MetricEvalEWMA,
		"EWMA of evaluation latency feeding the overload shedder")
	return m
}

// inflightAdd moves the in-flight gauge; nil-safe so the request path
// needs no branch when telemetry is disabled.
func (m *serverMetrics) inflightAdd(d float64) {
	if m == nil {
		return
	}
	m.inflight.Add(d)
}

// observeTenant counts one routed exchange under its tenant label,
// resolving the tenant's counter family on first sight. Unrouted
// (default-tenant) exchanges stay out of the family.
func (m *serverMetrics) observeTenant(tenant string, st Status) {
	if m == nil || tenant == "" {
		return
	}
	m.tenantMu.Lock()
	cs, ok := m.tenants[tenant]
	if !ok {
		cs = new([6]*telemetry.Counter)
		for s := StatusOK; s <= StatusUnknownTenant; s++ {
			cs[s] = m.reg.Counter(MetricTenantRequests,
				"completed routed exchanges by tenant and typed wire status",
				telemetry.L("tenant", tenant), telemetry.L("status", s.String()))
		}
		m.tenants[tenant] = cs
	}
	m.tenantMu.Unlock()
	cs[st].Inc()
}

// observeShed counts one shedder refusal.
func (m *serverMetrics) observeShed() {
	if m == nil {
		return
	}
	m.shed.Inc()
}

// setEvalEWMA publishes the shedder's current latency estimate.
func (m *serverMetrics) setEvalEWMA(d time.Duration) {
	if m == nil {
		return
	}
	m.evalEWMA.Set(d.Seconds())
}

// CheckAccounting checks the request accounting of a fleet of servers
// sharing one metrics registry against snap, a snapshot taken while none
// of them has a request in flight. routed holds the exchanges each
// tenant was sent; everything else is unrouted. Each broken invariant is
// reported by name:
//
//   - outcomes: MetricRequestsTotal summed over statuses equals the Stats
//     outcomes (Served + BadRequests + Rejected + Panics);
//   - served: MetricRequestsTotal{status="ok"} equals Served;
//   - tenant: each tenant's MetricTenantRequests sum equals its routed
//     exchanges, and the routed sums plus the unrouted remainder equal
//     the global count (the remainder is never negative).
func CheckAccounting(snap telemetry.Snapshot, routed map[string]int, fleet ...*Server) error {
	var outcomes, served, global, ok, nRouted int64
	for _, s := range fleet {
		st := s.Stats()
		outcomes += int64(st.Served + st.BadRequests + st.Rejected + st.Panics)
		served += int64(st.Served)
	}
	if f := snap.Family(MetricRequestsTotal); f != nil {
		for _, m := range f.Metrics {
			global += int64(m.Value)
			if m.Get("status") == StatusOK.String() {
				ok += int64(m.Value)
			}
		}
	}
	perTenant := map[string]int64{}
	for name := range routed {
		perTenant[name] = 0
	}
	if f := snap.Family(MetricTenantRequests); f != nil {
		for _, m := range f.Metrics {
			perTenant[m.Get("tenant")] += int64(m.Value)
			nRouted += int64(m.Value)
		}
	}
	var errs []error
	if global != outcomes {
		errs = append(errs, fmt.Errorf("accounting outcomes: %s sums to %d over statuses, Stats outcomes to %d", MetricRequestsTotal, global, outcomes))
	}
	if ok != served {
		errs = append(errs, fmt.Errorf("accounting served: %s{status=ok} = %d, Stats.Served = %d", MetricRequestsTotal, ok, served))
	}
	for name, n := range perTenant {
		if n != int64(routed[name]) {
			errs = append(errs, fmt.Errorf("accounting tenant %q: %s sums to %d, want the %d exchanges routed to it", name, MetricTenantRequests, n, routed[name]))
		}
	}
	if nRouted > global {
		errs = append(errs, fmt.Errorf("accounting tenant: %d routed exchanges exceed the global count %d", nRouted, global))
	}
	return errors.Join(errs...)
}

// reqTrace carries one request's phase timings and layer breakdown from
// admission to outcome. It exists only when the server observes requests
// (metrics, slow-request log, or flight recorder enabled).
type reqTrace struct {
	id     uint64
	start  time.Time
	phases [numPhases]time.Duration
	layers []hecnn.LayerStat

	// wt is the wire-propagated trace context (zero for untraced
	// clients); shed feeds the flight recorder's always-keep tags.
	wt   telemetry.SpanContext
	shed bool
	// tenant is the routed tenant name ("" for default-tenant requests);
	// it keys the per-tenant outcome counters.
	tenant string
}

// setTenant records the routed tenant for outcome accounting.
func (rt *reqTrace) setTenant(name string) {
	if rt == nil {
		return
	}
	rt.tenant = name
}

// timePhase records d against p (keeping the max on re-entry, which
// cannot happen in the current flow but keeps the trace sane if it ever
// does).
func (rt *reqTrace) timePhase(p phase, d time.Duration) {
	if rt == nil {
		return
	}
	rt.phases[p] += d
}

// endPhase records the time since start against p and returns now, the
// next phase's start.
func (rt *reqTrace) endPhase(p phase, start time.Time) time.Time {
	if rt == nil {
		return start
	}
	now := time.Now()
	rt.phases[p] += now.Sub(start)
	return now
}

// setWire stores the client's propagated trace context.
func (rt *reqTrace) setWire(tc telemetry.SpanContext) {
	if rt == nil {
		return
	}
	rt.wt = tc
}

// markShed flags the request as refused by the shedder.
func (rt *reqTrace) markShed() {
	if rt == nil {
		return
	}
	rt.shed = true
}

// outcome finalizes a request: status counter, phase histograms (with
// exemplars pointing at the recorded trace), whole-request histogram,
// the flight-recorder entry, and — when over the threshold — one
// structured slow-request log line with the per-layer span breakdown.
func (s *Server) outcome(rt *reqTrace, st Status) {
	m := s.met
	if m != nil {
		m.requests[st].Inc()
	}
	if rt == nil {
		return
	}
	m.observeTenant(rt.tenant, st)
	total := time.Since(rt.start)
	slow := s.cfg.SlowRequestThreshold > 0 && total >= s.cfg.SlowRequestThreshold

	// Resolve the trace identity once: the wire-propagated trace when the
	// client sent one, a fresh ID otherwise — but only when a recorder
	// will keep it, so untraced servers mint nothing.
	var traceID string
	if s.flight != nil {
		if rt.wt.Trace.IsZero() {
			rt.wt.Trace = telemetry.NewTraceID()
		}
		traceID = rt.wt.Trace.String()
	}

	if m != nil {
		for p := phase(0); p < numPhases; p++ {
			if rt.phases[p] > 0 {
				m.phases[p].ObserveExemplar(rt.phases[p].Seconds(), traceID)
			}
		}
		m.request.ObserveExemplar(total.Seconds(), traceID)
	}
	if s.flight != nil {
		s.recordTrace(rt, st, total, slow)
	}
	if slow && s.slowLog != nil {
		if m != nil {
			m.slow.Inc()
		}
		s.logSlow(rt, st, total)
	}
}

// buildRequestSpan assembles the completed span tree of one finished
// request — the "request" root, one child per lifecycle phase, and the
// per-layer breakdown under evaluate. Shared by the slow-request log and
// the flight recorder.
func buildRequestSpan(rt *reqTrace, st Status, total time.Duration) *telemetry.Span {
	span := telemetry.CompletedSpan("request", total,
		telemetry.L("req", strconv.FormatUint(rt.id, 10)),
		telemetry.L("status", st.String()))
	for p := phase(0); p < numPhases; p++ {
		if rt.phases[p] <= 0 {
			continue
		}
		ps := telemetry.CompletedSpan(p.String(), rt.phases[p])
		if p == phaseEvaluate {
			for i := range rt.layers {
				l := &rt.layers[i]
				ps.AddChild(telemetry.CompletedSpan(l.Layer, l.Wall,
					telemetry.L("hops", strconv.Itoa(l.HOPs)),
					telemetry.L("ks", strconv.Itoa(l.KeySwitches)),
					telemetry.L("level", strconv.Itoa(l.Level))))
			}
		}
		span.AddChild(ps)
	}
	return span
}

// recordTrace snapshots the finished request into the flight recorder:
// the span tree joins the client's trace (rt.wt resolved by outcome) and
// carries the tail-sampler's always-keep tags.
func (s *Server) recordTrace(rt *reqTrace, st Status, total time.Duration, slow bool) {
	span := buildRequestSpan(rt, st, total)
	span.Trace = rt.wt.Trace
	span.Parent = rt.wt.Span
	span.ID = telemetry.NewSpanID()

	var tags []string
	if st != StatusOK {
		tags = append(tags, "error")
	}
	if slow {
		tags = append(tags, "slow")
	}
	if rt.shed {
		tags = append(tags, "shed")
	}
	s.flight.Record(span, tags...)
}

// logSlow writes the structured slow-request line: request id, status,
// total, per-phase times, and the per-layer evaluate breakdown.
func (s *Server) logSlow(rt *reqTrace, st Status, total time.Duration) {
	span := buildRequestSpan(rt, st, total)
	s.slowMu.Lock()
	fmt.Fprintf(s.slowLog, "mlaas: slow request %s\n", span)
	s.slowMu.Unlock()
}

package mlaas

// The process-wide memory plan. FxHENN sizes its chip from the buffers
// its design keeps resident (§VI-A); a server knows its own resident set
// just as exactly: each runtime's operand table and the rows of its
// level-trimmed key views. The plan turns that sum into the Go runtime's
// soft memory limit, so the collector paces against what is really
// resident instead of doubling it at GOGC=100:
//
//	limit = Σresident·5/4 + 64 MiB, never below 256 MiB
//
// The resident term behaves like GOGC=25 on the resident bytes alone, and
// the constant headroom holds the transient rows of the requests in
// flight; the floor leaves a small process on the default pacer. While
// any runtime builds, the process runs at the limit it had before the
// plan: a build holds the full keys and the table under construction at
// once. A limit set before the plan first looks (GOMEMLIMIT, or the
// program's own debug.SetMemoryLimit) is never changed, and once no
// resident byte is left the limit goes back to what it was.

import (
	"math"
	"runtime/debug"
	"sync"

	"fxhenn/internal/ckks"
	"fxhenn/internal/ring"
	"fxhenn/internal/telemetry"
)

const (
	memHeadroom = 64 << 20
	memFloor    = 256 << 20
)

// processMemory is the plan every Server built by NewServerWithConfig
// reports to: the memory limit is the process's, so there is one.
var processMemory = newMemPlan(debug.SetMemoryLimit)

// memPlan sums the resident bytes of every open share and keeps the
// process limit at the formula above. Every change runs under mu, so the
// limit last set is always the one of the current sum.
type memPlan struct {
	// setLimit is debug.SetMemoryLimit, or a test's seam.
	setLimit func(int64) int64

	mu       sync.Mutex
	resident int64 // Σ open shares' resident bytes
	building int   // runtime builds in progress
	looked   bool  // limit holds the process limit the plan first saw
	operator bool  // that limit was not math.MaxInt64: never change it
	limit    int64 // the process limit in force
	shares   map[*memShare]struct{}
}

func newMemPlan(setLimit func(int64) int64) *memPlan {
	return &memPlan{setLimit: setLimit, shares: make(map[*memShare]struct{})}
}

// memShare is one server's part of the plan. Shutdown closes it, which
// takes its resident bytes out of the plan; a closed share ignores every
// later change to them, so nothing is taken out twice.
type memShare struct {
	plan     *memPlan
	resident int64 // under plan.mu
	closed   bool
	// gResident sums the open shares' resident bytes on their registry,
	// like cache_bytes; gLimit is the process limit.
	gResident, gLimit *telemetry.Gauge
}

// open adds a share to the plan, publishing MetricResidentBytes and
// MetricMemoryLimit on reg (nil publishes nothing).
func (p *memPlan) open(reg *telemetry.Registry) *memShare {
	m := &memShare{
		plan:      p,
		gResident: reg.Gauge(MetricResidentBytes, "resident bytes the memory plan counts: operand tables and key-view rows"),
		gLimit:    reg.Gauge(MetricMemoryLimit, "the process's soft memory limit (math.MaxInt64 when none)"),
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.shares[m] = struct{}{}
	p.apply()
	m.gLimit.Set(float64(p.limit))
	return m
}

// change moves the plan's build count and the share's resident bytes by
// the given amounts, then brings the process limit up to date. A build
// holds the count up from before its first allocation to its end.
func (m *memShare) change(building int, resident int64) {
	p := m.plan
	p.mu.Lock()
	defer p.mu.Unlock()
	p.building += building
	if !m.closed {
		m.resident += resident
		p.resident += resident
		m.gResident.Add(float64(resident))
	}
	p.apply()
}

// close takes the share's resident bytes out of the plan.
func (m *memShare) close() {
	p := m.plan
	p.mu.Lock()
	defer p.mu.Unlock()
	if m.closed {
		return
	}
	m.closed = true
	p.resident -= m.resident
	m.gResident.Add(-float64(m.resident))
	m.resident = 0
	p.apply() // m's limit gauge, too, shows the limit it leaves behind
	delete(p.shares, m)
}

// apply sets the process limit the current sum calls for, unless it is
// already in force. It runs under mu.
func (p *memPlan) apply() {
	if !p.looked {
		p.looked = true
		p.limit = p.setLimit(-1)
		p.operator = p.limit != math.MaxInt64
	}
	if p.operator {
		return
	}
	want := int64(math.MaxInt64)
	if p.building == 0 && p.resident > 0 {
		want = max(p.resident+p.resident/4+memHeadroom, memFloor)
	}
	if want == p.limit {
		return
	}
	p.setLimit(want)
	p.limit = want
	for m := range p.shares {
		m.gLimit.Set(float64(want))
	}
}

// polyBytes is the bytes p's residue rows hold.
func polyBytes(p *ring.Poly) int64 {
	var n int64
	for _, row := range p.Coeffs {
		n += 8 * int64(len(row))
	}
	return n
}

// keyBytes is the bytes the rows of the key views rlk and rtk hold (either
// may be nil).
func keyBytes(rlk *ckks.RelinearizationKey, rtk *ckks.RotationKeys) int64 {
	var n int64
	add := func(swk *ckks.SwitchingKey) {
		for i := range swk.B {
			n += polyBytes(swk.B[i]) + polyBytes(swk.A[i])
		}
	}
	if rlk != nil {
		add(&rlk.SwitchingKey)
	}
	if rtk != nil {
		for _, swk := range rtk.Keys {
			add(swk)
		}
	}
	return n
}

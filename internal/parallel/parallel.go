// Package parallel provides the shared evaluation worker pool that the
// RNS-CKKS stack (ntt, ring, ckks, hecnn, mlaas) uses to exploit the
// embarrassing parallelism of the RNS decomposition: every prime limb of a
// polynomial — and every digit of a key-switch decomposition — can be
// transformed independently, so the hot loops dispatch per-limb work items
// across a fixed set of workers.
//
// # Scheduling model
//
// A Pool owns workers−1 long-lived goroutines pulling closures from one
// unbuffered channel; the goroutine that calls Do always participates as
// the final worker. Dispatch is non-blocking: if every worker is busy, the
// caller simply executes the items itself ("inline"). This makes the pool
//
//   - deadlock-free under nesting: a worker whose task itself calls Do
//     never blocks waiting for a peer — it degrades to inline execution;
//   - work-conserving and fair across concurrent callers: intra-request
//     (limb/digit) and inter-request (mlaas) parallelism draw from the same
//     fixed worker budget, and no caller can park work in a queue ahead of
//     another — excess load runs on the requester's own goroutine;
//   - bounded: total active goroutines never exceed workers plus the
//     callers themselves.
//
// # Determinism
//
// Do(n, fn) promises only that fn(i) runs exactly once for every i in
// [0,n), on an unspecified goroutine, before Do returns. Callers partition
// output so that item i writes state only item i reads (one RNS limb, one
// key-switch target row, one hoisted rotation); under that discipline a
// parallel run is bit-exact with a serial one, which the ckks digest tests
// pin.
//
// A nil *Pool and a 1-worker Pool both execute serially on the caller's
// goroutine with zero synchronization, so every call site can be written
// against the pool unconditionally.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"

	"fxhenn/internal/telemetry"
)

// Pool is a fixed-size evaluation worker pool. The zero value is not
// usable; construct with New. All methods are safe for concurrent use,
// and all are nil-receiver safe (a nil pool runs everything inline).
type Pool struct {
	workers int
	tasks   chan func()

	busy       atomic.Int64 // workers currently running a task
	dispatched atomic.Int64 // items executed on pool workers
	inline     atomic.Int64 // items executed on caller goroutines

	// Telemetry handles are nil until SetMetrics; telemetry's nil-safe
	// handles make the updates free when metrics are disabled.
	mBusy       *telemetry.Gauge
	mWorkers    *telemetry.Gauge
	mDispatched *telemetry.Counter
	mInline     *telemetry.Counter
}

// New creates a pool. workers <= 0 selects runtime.GOMAXPROCS(0);
// workers == 1 creates a pool that always runs inline (no goroutines are
// spawned). The pool's goroutines live for the life of the process — pools
// are meant to be created once and shared, not created per request.
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{workers: workers}
	if workers > 1 {
		p.tasks = make(chan func())
		for i := 0; i < workers-1; i++ {
			go p.worker()
		}
	}
	return p
}

func (p *Pool) worker() {
	for task := range p.tasks {
		task()
	}
}

// Workers returns the pool's concurrency budget (1 for a nil pool).
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return p.workers
}

// Stats is a snapshot of the pool's scheduling counters.
type Stats struct {
	Workers    int   // fixed concurrency budget
	Busy       int   // workers running a task right now
	Dispatched int64 // items executed on pool workers
	Inline     int64 // items executed on caller goroutines (their own share, or all when the pool is saturated)
}

// Stats returns a snapshot of the scheduling counters.
func (p *Pool) Stats() Stats {
	if p == nil {
		return Stats{Workers: 1}
	}
	return Stats{
		Workers:    p.workers,
		Busy:       int(p.busy.Load()),
		Dispatched: p.dispatched.Load(),
		Inline:     p.inline.Load(),
	}
}

// SetMetrics publishes the pool's utilization to a telemetry registry:
// parallel_pool_workers (gauge), parallel_pool_busy_workers (gauge),
// parallel_pool_items_total{mode=worker|inline} (counters). A nil registry
// leaves the pool unobserved.
func (p *Pool) SetMetrics(reg *telemetry.Registry) {
	if p == nil || reg == nil {
		return
	}
	p.mWorkers = reg.Gauge("parallel_pool_workers", "fixed evaluation worker budget")
	p.mWorkers.Set(float64(p.workers))
	p.mBusy = reg.Gauge("parallel_pool_busy_workers", "pool workers currently running a task")
	p.mDispatched = reg.Counter("parallel_pool_items_total", "work items by execution mode",
		telemetry.L("mode", "worker"))
	p.mInline = reg.Counter("parallel_pool_items_total", "work items by execution mode",
		telemetry.L("mode", "inline"))
}

// Do runs fn(i) exactly once for every i in [0,n), potentially across the
// pool's workers, and returns when all items are done. The caller's
// goroutine always participates, so Do never waits for a free worker. If
// any item panics, Do re-panics with the first recovered value after all
// items finish — shared output is never left half-written by a survivor.
//
// Item order is unspecified; callers must make items independent (see the
// package comment's determinism contract).
func (p *Pool) Do(n int, fn func(i int)) {
	switch {
	case n <= 0:
		return
	case p == nil || p.workers == 1 || n == 1:
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}

	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		panicked atomic.Pointer[panicValue]
	)
	// run drains the shared index counter; both helpers and the caller use
	// it, so whichever goroutines are actually running steal work from the
	// same sequence and the pool stays balanced without per-item channels.
	run := func(onWorker bool) {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			if onWorker {
				p.dispatched.Add(1)
				p.mDispatched.Inc()
			} else {
				p.inline.Add(1)
				p.mInline.Inc()
			}
			fn(i)
		}
	}

	helpers := p.workers - 1
	if helpers > n-1 {
		helpers = n - 1
	}
	for h := 0; h < helpers; h++ {
		wg.Add(1)
		task := func() {
			defer wg.Done()
			p.busy.Add(1)
			p.mBusy.Add(1)
			defer func() {
				p.busy.Add(-1)
				p.mBusy.Add(-1)
				if r := recover(); r != nil {
					pv := &panicValue{v: r}
					panicked.CompareAndSwap(nil, pv)
				}
			}()
			run(true)
		}
		select {
		case p.tasks <- task:
		default:
			// Every worker is busy (typically with an outer Do); give up
			// on this helper and let the caller absorb the work.
			wg.Done()
		}
	}
	// The caller participates; if its own item panics, wait for helpers
	// (so no goroutine still writes shared output) and let it propagate.
	defer wg.Wait()
	run(false)
	wg.Wait()
	if pv := panicked.Load(); pv != nil {
		panic(pv.v)
	}
}

// panicValue boxes a recovered panic for transport between goroutines.
type panicValue struct{ v any }

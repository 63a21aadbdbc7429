package gateway

// Circuit breaking: one exchange breaker per shard. The machine is the
// classic three-state one — closed (traffic flows), open (traffic is
// refused locally until a cooldown elapses), half-open (exactly one probe
// is let through to test recovery). Every open cycle waits the same
// cooldown, spread ±20% so breakers that tripped together do not probe a
// recovering shard in lockstep; the spread comes from a seed-0 RNG, so a
// whole failure scenario replays identically.

import (
	"math/rand"
	"sync"
	"time"
)

// breakerJitter is the cooldown's relative spread.
const breakerJitter = 0.2

// breakerState is the classic three-state machine.
type breakerState int

const (
	breakerClosed breakerState = iota
	breakerHalfOpen
	breakerOpen
)

func (s breakerState) String() string {
	return [...]string{"closed", "half-open", "open"}[s]
}

// breaker is one circuit breaker instance. All methods are safe for
// concurrent use.
type breaker struct {
	threshold int              // consecutive failures that trip closed → open
	cooldown  time.Duration    // open → probe delay before jitter
	now       func() time.Time // test seam; time.Now outside tests

	mu      sync.Mutex
	rng     *rand.Rand
	state   breakerState
	fails   int       // consecutive failures while closed
	probeAt time.Time // when an open breaker next grants a half-open probe
}

// newBreaker builds a closed breaker.
func newBreaker(threshold int, cooldown time.Duration) *breaker {
	return &breaker{
		threshold: threshold,
		cooldown:  cooldown,
		now:       time.Now,
		rng:       rand.New(rand.NewSource(0)),
	}
}

// Allow reports whether a request may go through right now. A closed
// breaker always allows; an open breaker refuses until its probe instant,
// at which point it transitions to half-open and allows exactly one probe;
// a half-open breaker refuses (the probe is already in flight). The caller
// that was allowed MUST report the outcome via OnSuccess or OnFailure.
func (b *breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if !b.now().Before(b.probeAt) {
			b.state = breakerHalfOpen
			return true
		}
		return false
	default: // half-open: one probe outstanding
		return false
	}
}

// OnSuccess records a completed request: any state collapses back to
// closed and the failure count resets.
func (b *breaker) OnSuccess() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state = breakerClosed
	b.fails = 0
}

// OnFailure records a failed request: a half-open probe failure re-opens
// immediately; closed-state failures accumulate toward the threshold.
func (b *breaker) OnFailure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerHalfOpen:
		b.openLocked()
	case breakerClosed:
		b.fails++
		if b.fails >= b.threshold {
			b.openLocked()
		}
	}
	// Failures reported while already open (late results from attempts
	// admitted before the trip) change nothing.
}

// openLocked trips to open and schedules the next probe one jittered
// cooldown away.
func (b *breaker) openLocked() {
	b.state = breakerOpen
	b.fails = 0
	d := time.Duration(float64(b.cooldown) * (1 + breakerJitter*(2*b.rng.Float64()-1)))
	b.probeAt = b.now().Add(d)
}

// State returns the state for observability; an open breaker whose probe
// instant has passed still reports open until a caller claims the probe
// via Allow.
func (b *breaker) State() breakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

package mlaas

// Circuit breaking: the one state machine behind the failover client (one
// breaker per endpoint), the batch scheduler's degradation ladder (one
// breaker on the batched evaluation path) and the gateway (one dial
// breaker per shard). The machine is the classic three-state one — closed
// (traffic flows), open (traffic is refused locally until a cooldown
// elapses), half-open (exactly one probe is let through to test recovery)
// — with a deterministic probe schedule: the cooldown doubles on every
// consecutive open cycle up to a cap, and the jitter on each cooldown is
// drawn from a seeded RNG, so a whole failure scenario replays
// identically from its config.

import (
	"math/rand"
	"sync"
	"time"
)

// BreakerConfig shapes a circuit breaker. The zero value takes every
// default; Seed makes the probe schedule reproducible.
type BreakerConfig struct {
	// Threshold is the number of consecutive failures that trips the
	// breaker from closed to open. Default 3.
	Threshold int
	// Cooldown is the first open→probe delay; each consecutive open cycle
	// doubles it up to MaxCooldown. Defaults 1s / 30s.
	Cooldown    time.Duration
	MaxCooldown time.Duration
	// Jitter spreads each cooldown uniformly over ±Jitter·cooldown so
	// synchronized breakers don't probe a recovering server in lockstep.
	// Default 0.2.
	Jitter float64
	// Seed drives the jitter sequence deterministically.
	Seed int64
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.Threshold <= 0 {
		c.Threshold = 3
	}
	if c.Cooldown <= 0 {
		c.Cooldown = time.Second
	}
	if c.MaxCooldown <= 0 {
		c.MaxCooldown = 30 * time.Second
	}
	if c.Jitter <= 0 {
		c.Jitter = 0.2
	}
	return c
}

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

// Breaker is one circuit breaker instance. All methods are safe for
// concurrent use.
type Breaker struct {
	cfg BreakerConfig
	now func() time.Time // test seam; time.Now outside tests

	mu      sync.Mutex
	rng     *rand.Rand
	state   breakerState
	fails   int       // consecutive failures while closed
	streak  int       // consecutive open cycles (drives the exponential cooldown)
	probeAt time.Time // when an open breaker next grants a half-open probe
}

// NewBreaker builds a closed breaker.
func NewBreaker(cfg BreakerConfig) *Breaker {
	cfg = cfg.withDefaults()
	return &Breaker{
		cfg: cfg,
		now: time.Now,
		rng: rand.New(rand.NewSource(cfg.Seed)),
	}
}

// Allow reports whether a request may go through right now. A closed
// breaker always allows; an open breaker refuses until its probe instant,
// at which point it transitions to half-open and allows exactly one probe;
// a half-open breaker refuses (the probe is already in flight). The caller
// that was allowed MUST report the outcome via OnSuccess or OnFailure.
func (b *Breaker) Allow() bool {
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
// closed and the failure accounting resets.
func (b *Breaker) OnSuccess() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state = breakerClosed
	b.fails = 0
	b.streak = 0
}

// OnFailure records a failed request: a half-open probe failure re-opens
// immediately with a doubled cooldown; closed-state failures accumulate
// toward the threshold.
func (b *Breaker) OnFailure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerHalfOpen:
		b.openLocked()
	case breakerClosed:
		b.fails++
		if b.fails >= b.cfg.Threshold {
			b.openLocked()
		}
	}
	// Failures reported while already open (late results from attempts
	// admitted before the trip) change nothing.
}

// OnAbandon records an attempt whose outcome was never learned — a hedge
// loser cancelled when another endpoint won the race. It must not judge
// the endpoint, but a consumed half-open probe has to be released or the
// breaker wedges: the state returns to open with the probe instant
// unchanged (already past), so the next caller may probe immediately.
func (b *Breaker) OnAbandon() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == breakerHalfOpen {
		b.state = breakerOpen
	}
}

// openLocked trips to open and schedules the next probe: cooldown doubles
// per consecutive open cycle up to the cap, jittered by the seeded RNG.
func (b *Breaker) openLocked() {
	b.state = breakerOpen
	b.fails = 0
	b.streak++
	d := b.cfg.Cooldown
	for i := 1; i < b.streak && d < b.cfg.MaxCooldown; i++ {
		d *= 2
	}
	if d > b.cfg.MaxCooldown {
		d = b.cfg.MaxCooldown
	}
	d = time.Duration(float64(d) * (1 + b.cfg.Jitter*(2*b.rng.Float64()-1)))
	b.probeAt = b.now().Add(d)
}

// State returns the state for observability; an open breaker whose probe
// instant has passed still reports open until a caller claims the probe
// via Allow.
func (b *Breaker) State() breakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

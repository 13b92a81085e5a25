package resilience

import (
	"sync"
	"sync/atomic"
	"time"

	"tinystm/internal/rng"
)

// BreakerState is a circuit breaker's position.
type BreakerState int32

const (
	// BreakerClosed passes all traffic (the healthy state).
	BreakerClosed BreakerState = iota
	// BreakerOpen fails fast: the backend looked dead recently and the
	// cooldown has not elapsed.
	BreakerOpen
	// BreakerHalfOpen lets exactly one probe through; its outcome
	// decides between closing and re-opening.
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return "unknown"
}

// BreakerConfig configures a Breaker. Zero values take the defaults
// noted on each field.
type BreakerConfig struct {
	// FailureThreshold is how many CONSECUTIVE failures trip the
	// breaker open (default 5).
	FailureThreshold int
	// Cooldown is how long the breaker stays open before allowing a
	// probe (default 1s), jittered by ±breakerJitter/2 so a fleet of
	// clients tripped by the same outage does not probe in lockstep.
	Cooldown time.Duration
	// Seed seeds the jitter's deterministic generator (default 1).
	Seed uint64
	// Now is injectable for tests (default time.Now).
	Now func() time.Time
}

// breakerJitter is the fraction of the cooldown randomized: cooldowns
// land uniformly in [0.9·Cooldown, 1.1·Cooldown).
const breakerJitter = 0.2

func (c *BreakerConfig) withDefaults() BreakerConfig {
	d := BreakerConfig{FailureThreshold: 5, Cooldown: time.Second, Seed: 1, Now: time.Now}
	if c != nil {
		if c.FailureThreshold > 0 {
			d.FailureThreshold = c.FailureThreshold
		}
		if c.Cooldown > 0 {
			d.Cooldown = c.Cooldown
		}
		if c.Seed != 0 {
			d.Seed = c.Seed
		}
		if c.Now != nil {
			d.Now = c.Now
		}
	}
	return d
}

// Breaker is a consecutive-failure circuit breaker. Failures are
// whatever the caller reports — for kvclient that is failed dials AND
// connections dying under it, because a breaker that only watches
// dials never opens when a proxy accepts and then resets. Success on
// the half-open probe closes the breaker; failure re-opens it for
// another jittered cooldown.
//
// State reads and the healthy-path Success are lock-free; transitions
// take a mutex (they are rare by construction).
type Breaker struct {
	cfg BreakerConfig

	state atomic.Int32
	armed atomic.Bool

	mu        sync.Mutex
	jitter    *rng.Rand
	failures  int
	openUntil time.Time
	probing   bool
	opens     uint64
	probes    uint64
	closes    uint64
}

// NewBreaker returns a closed Breaker. cfg may be nil for defaults.
func NewBreaker(cfg *BreakerConfig) *Breaker {
	d := cfg.withDefaults()
	return &Breaker{cfg: d, jitter: rng.New(d.Seed)}
}

// Allow reports whether a dial may proceed. In the open state it
// returns false until the cooldown elapses, then admits exactly one
// half-open probe; further callers keep failing fast until the probe
// reports Success or Failure.
func (b *Breaker) Allow() bool {
	if BreakerState(b.state.Load()) == BreakerClosed {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch BreakerState(b.state.Load()) {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if b.cfg.Now().Before(b.openUntil) {
			return false
		}
		b.state.Store(int32(BreakerHalfOpen))
		b.probing = true
		b.probes++
		return true
	default: // half-open
		if b.probing {
			return false
		}
		b.probing = true
		b.probes++
		return true
	}
}

// Success records a healthy response. It closes a half-open breaker
// and clears the consecutive-failure count. The no-op healthy path is
// two atomic loads.
func (b *Breaker) Success() {
	if !b.armed.Load() && BreakerState(b.state.Load()) == BreakerClosed {
		return
	}
	b.mu.Lock()
	if BreakerState(b.state.Load()) != BreakerClosed {
		b.closes++
	}
	b.state.Store(int32(BreakerClosed))
	b.failures = 0
	b.probing = false
	b.armed.Store(false)
	b.mu.Unlock()
}

// Failure records a failed dial or a connection death. The threshold's
// consecutive failure trips the breaker; a failure while half-open
// re-opens it immediately.
func (b *Breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.armed.Store(true)
	switch BreakerState(b.state.Load()) {
	case BreakerOpen:
		// Already failing fast; late failure reports (in-flight ops on a
		// dying connection) carry no new information.
		return
	case BreakerHalfOpen:
		b.trip()
	default:
		if b.failures++; b.failures >= b.cfg.FailureThreshold {
			b.trip()
		}
	}
}

// trip opens the breaker for one jittered cooldown. Caller holds mu.
func (b *Breaker) trip() {
	b.state.Store(int32(BreakerOpen))
	b.failures = 0
	b.probing = false
	b.opens++
	// Uniform in [Cooldown·(1-j/2), Cooldown·(1+j/2)), deterministic per
	// seed.
	const j = breakerJitter
	u := float64(b.jitter.Uint64n(1<<20)) / (1 << 20)
	cd := time.Duration(float64(b.cfg.Cooldown) * (1 - j/2 + j*u))
	b.openUntil = b.cfg.Now().Add(cd)
}

// State returns the breaker's current position (lock-free).
func (b *Breaker) State() BreakerState { return BreakerState(b.state.Load()) }

// BreakerCounts are cumulative transition counters: trips to open,
// half-open probes admitted, and closes from half-open.
type BreakerCounts struct {
	Opens, Probes, Closes uint64
}

// Counts snapshots the transition counters.
func (b *Breaker) Counts() BreakerCounts {
	b.mu.Lock()
	defer b.mu.Unlock()
	return BreakerCounts{Opens: b.opens, Probes: b.probes, Closes: b.closes}
}

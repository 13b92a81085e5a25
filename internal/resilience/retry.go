package resilience

import (
	"sync/atomic"
	"time"
)

// maxBackoff caps the doubling backoff between attempts.
const maxBackoff = time.Second

// RetryConfig configures a Retrier. Zero values take the defaults
// noted on each field.
type RetryConfig struct {
	// MaxAttempts is the total number of attempts including the first
	// (default 4).
	MaxAttempts int
	// BaseBackoff is the sleep before the first retry (default 25ms); it
	// doubles per attempt up to maxBackoff.
	BaseBackoff time.Duration
	// Budget, when non-nil, is consulted before every retry and credited
	// on every success. Share one budget across all retriers talking to
	// the same backend. Nil means retries are bounded only by
	// MaxAttempts.
	Budget *RetryBudget
	// Retryable classifies errors; nil retries nothing (the Retrier
	// degrades to a single attempt).
	Retryable func(error) bool
	// Sleep is injectable for tests (default time.Sleep).
	Sleep func(time.Duration)
}

func (c RetryConfig) withDefaults() RetryConfig {
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 4
	}
	if c.BaseBackoff <= 0 {
		c.BaseBackoff = 25 * time.Millisecond
	}
	if c.Sleep == nil {
		c.Sleep = time.Sleep
	}
	return c
}

// Retrier runs operations with capped-exponential backoff under a
// retry budget. It is stateless across calls except for counters, so
// one Retrier may be shared by any number of goroutines.
type Retrier struct {
	cfg     RetryConfig
	retries atomic.Uint64
}

// NewRetrier returns a Retrier for cfg.
func NewRetrier(cfg RetryConfig) *Retrier {
	return &Retrier{cfg: cfg.withDefaults()}
}

// Do runs fn, retrying on retryable errors while attempts and budget
// last, and returns the last error (nil on success). The backoff
// doubles per attempt: Base, 2*Base, ... capped at maxBackoff.
func (r *Retrier) Do(fn func() error) error {
	backoff := r.cfg.BaseBackoff
	var err error
	for attempt := 1; ; attempt++ {
		if err = fn(); err == nil {
			if r.cfg.Budget != nil {
				r.cfg.Budget.Credit()
			}
			return nil
		}
		if attempt >= r.cfg.MaxAttempts || r.cfg.Retryable == nil || !r.cfg.Retryable(err) {
			return err
		}
		if r.cfg.Budget != nil && !r.cfg.Budget.Allow() {
			return err
		}
		r.retries.Add(1)
		r.cfg.Sleep(backoff)
		backoff = min(2*backoff, maxBackoff)
	}
}

// Retries returns how many retry attempts this Retrier has performed
// (first attempts are not counted).
func (r *Retrier) Retries() uint64 { return r.retries.Load() }

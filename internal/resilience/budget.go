package resilience

import (
	"math"
	"sync"
)

// RetryBudget is a token bucket that bounds how much RETRY load a
// client may add on top of its first-attempt load. First attempts are
// free; each retry spends one token; each successful attempt earns
// back a tenth of a token (capped at Tokens). In steady state a client
// can therefore retry at most 10% of its successful traffic — the
// classic retry-budget scheme — with a burst allowance of Tokens for
// short blips. When the bucket is empty the retry is denied and the
// caller surfaces the original error instead of amplifying an outage
// into a retry storm.
//
// One budget is shared by everything that retries against the same
// backend (all ops on a connection, or a whole load generator), so the
// bound holds for the client as a unit, not per call site.
type RetryBudget struct {
	mu sync.Mutex
	// cap and credits count tenths of a token (creditsPerToken), so ten
	// successes earn exactly one retry.
	cap, credits    uint64
	allowed, denied uint64
}

// creditsPerToken is the earn rate's inverse: a success earns one
// credit, a retry spends creditsPerToken of them.
const creditsPerToken = 10

// RetryBudgetConfig configures a RetryBudget.
type RetryBudgetConfig struct {
	// Tokens is the bucket capacity and initial fill (default 16).
	Tokens float64
}

// NewRetryBudget returns a full bucket. cfg may be nil for defaults.
func NewRetryBudget(cfg *RetryBudgetConfig) *RetryBudget {
	tokens := 16.0
	if cfg != nil && cfg.Tokens > 0 {
		tokens = cfg.Tokens
	}
	c := uint64(math.Round(tokens * creditsPerToken))
	return &RetryBudget{cap: c, credits: c}
}

// Allow spends one token if at least one is available and reports
// whether the retry may proceed.
func (b *RetryBudget) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.credits < creditsPerToken {
		b.denied++
		return false
	}
	b.credits -= creditsPerToken
	b.allowed++
	return true
}

// Credit records a successful attempt, earning a tenth of a token back.
func (b *RetryBudget) Credit() {
	b.mu.Lock()
	if b.credits < b.cap {
		b.credits++
	}
	b.mu.Unlock()
}

// BudgetStats is a point-in-time snapshot of a RetryBudget.
type BudgetStats struct {
	// Allowed and Denied count retry requests granted and refused.
	Allowed, Denied uint64
	// Tokens is the current fill and Cap the capacity.
	Tokens, Cap float64
}

// Stats snapshots the budget's counters.
func (b *RetryBudget) Stats() BudgetStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return BudgetStats{Allowed: b.allowed, Denied: b.denied,
		Tokens: float64(b.credits) / creditsPerToken, Cap: float64(b.cap) / creditsPerToken}
}

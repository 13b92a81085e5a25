package core

import "sync/atomic"

// clock is the global time base: a shared integer counter that every
// update commit increments (paper Section 3.1, "Clock Management"). v is
// the timestamp of the last committed update transaction, the value
// snapshots are taken against. It is padded to its own cache line because
// every update commit writes it.
type clock struct {
	_ [64]byte
	v atomic.Uint64
	_ [64]byte
}

// now returns the timestamp of the last committed update transaction.
func (c *clock) now() uint64 { return c.v.Load() }

// fetchInc issues the next timestamp.
func (c *clock) fetchInc() uint64 { return c.v.Add(1) }

// exhausted reports whether the clock has reached the roll-over threshold.
func (c *clock) exhausted(maxClock uint64) bool { return c.v.Load() >= maxClock-1 }

// reset rewinds the clock to zero during a roll-over (all transactions
// are quiescent when this runs).
func (c *clock) reset() { c.v.Store(0) }

// commitTS returns the commit timestamp for the current update commit:
// one fetch-and-increment, so timestamps are unique and dense and update
// transactions serialize in timestamp order. ok == false means the clock
// is exhausted and the caller must roll back and perform a roll-over.
func (tx *Tx) commitTS() (ts uint64, ok bool) {
	ts = tx.tm.clk.fetchInc()
	return ts, ts < tx.tm.maxClock
}

// freshVersion issues a version for a lock word outside the commit path
// (write-through incarnation overflow). The previous version of any
// released lock came from the same counter, so the new one exceeds it.
func (tx *Tx) freshVersion() uint64 { return tx.tm.clk.fetchInc() }

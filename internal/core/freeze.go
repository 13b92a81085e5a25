package core

import (
	"sync"
	"sync/atomic"
	"time"
)

// freezer implements the stop-the-world barrier the paper uses for both
// clock roll-over (Section 3.1) and dynamic reconfiguration (Section 4.2):
// "we use the same mechanisms as for clock roll-over to temporarily
// suspend transactions and update the tuning parameters".
//
// Protocol: an initiator raises the frozen flag and waits for the count of
// active attempts to drain to zero. An attempt checks the flag only when
// it enters, at Begin (enter), and parks there while the flag is up;
// in-flight attempts are not interrupted: the initiator waits until each
// commits or rolls back (exit), releasing its locks. Once quiescent, the
// initiator mutates shared state (the geometry, the sidecar and, for a
// roll-over, the clock; for a kvstore shard's growth, words of the space)
// and lowers the flag, waking everyone. TM.Quiesce is the one initiator.
//
// Attempts parked by one freeze get in before the next one: an initiator
// raises the flag only once every parked attempt has entered, so a
// stream of back-to-back freezes (bulk batches, each an Irrevocable run)
// cannot starve them. Without that rule a point Get beside a stream of
// 256-put irrevocable batches waited 173 ms at its 99th percentile
// (BenchmarkBulkCrossover), woken by each unfreeze only to find the next
// freeze already raised.
type freezer struct {
	frozen atomic.Uint32
	active atomic.Int64

	mu   sync.Mutex
	cond *sync.Cond
	// parked counts the attempts waiting in enter. Guarded by mu.
	parked int
}

func (f *freezer) init() { f.cond = sync.NewCond(&f.mu) }

// enter marks one transaction active, parking first if the TM is frozen.
func (f *freezer) enter() {
	f.active.Add(1)
	if f.frozen.Load() == 0 {
		return
	}
	// Raced with a freeze: retreat, wake the initiator in case we were the
	// last active transaction it was waiting for, and park.
	f.active.Add(-1)
	f.mu.Lock()
	f.parked++
	f.cond.Broadcast()
	for f.frozen.Load() != 0 {
		f.cond.Wait()
	}
	// The flag changes only under mu, and the next freeze waits for parked
	// to drain: this attempt is active before any freeze can be raised,
	// and that freeze waits for it.
	f.active.Add(1)
	f.parked--
	if f.parked == 0 {
		f.cond.Broadcast()
	}
	f.mu.Unlock()
}

// enterFrozen marks one transaction active without parking: the caller
// holds the freeze (an Irrevocable run), which enter would wait out
// forever.
func (f *freezer) enterFrozen() { f.active.Add(1) }

// exit marks one transaction inactive.
func (f *freezer) exit() {
	f.active.Add(-1)
	if f.frozen.Load() != 0 {
		f.mu.Lock()
		f.cond.Broadcast()
		f.mu.Unlock()
	}
}

// freeze blocks until this caller holds the (unique) frozen state and all
// transactions are quiescent, and returns when it raised the flag: the
// stall starts there, not while the caller waited behind other
// initiators. The caller must not be inside a transaction.
func (f *freezer) freeze() (raised time.Time) {
	f.mu.Lock()
	for f.parked > 0 || !f.frozen.CompareAndSwap(0, 1) {
		// Attempts the last freeze parked have yet to enter, or another
		// initiator is mid-freeze; wait, then compete again.
		f.cond.Wait()
	}
	raised = time.Now()
	for f.active.Load() > 0 {
		f.cond.Wait()
	}
	f.mu.Unlock()
	return raised
}

// unfreeze releases the barrier. Only the thread that won freeze may call.
func (f *freezer) unfreeze() {
	f.mu.Lock()
	f.frozen.Store(0)
	f.cond.Broadcast()
	f.mu.Unlock()
}

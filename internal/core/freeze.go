package core

import (
	"sync"
	"sync/atomic"
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
// roll-over, the clock) and lowers the flag, waking everyone.
type freezer struct {
	frozen atomic.Uint32
	active atomic.Int64

	mu   sync.Mutex
	cond *sync.Cond
}

func (f *freezer) init() { f.cond = sync.NewCond(&f.mu) }

// enter marks one transaction active, parking first if the TM is frozen.
func (f *freezer) enter() {
	for {
		f.active.Add(1)
		if f.frozen.Load() == 0 {
			return
		}
		// Raced with a freeze: retreat, wake the initiator in case we
		// were the last active transaction it was waiting for, and park.
		f.active.Add(-1)
		f.mu.Lock()
		f.cond.Broadcast()
		for f.frozen.Load() != 0 {
			f.cond.Wait()
		}
		f.mu.Unlock()
	}
}

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
// transactions are quiescent. The caller must not be inside a transaction.
func (f *freezer) freeze() {
	f.mu.Lock()
	for !f.frozen.CompareAndSwap(0, 1) {
		// Another initiator is mid-freeze; wait for it to finish, then
		// compete again.
		f.cond.Wait()
	}
	for f.active.Load() > 0 {
		f.cond.Wait()
	}
	f.mu.Unlock()
}

// unfreeze releases the barrier. Only the thread that won freeze may call.
func (f *freezer) unfreeze() {
	f.mu.Lock()
	f.frozen.Store(0)
	f.cond.Broadcast()
	f.mu.Unlock()
}

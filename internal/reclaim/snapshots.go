package reclaim

import (
	"sync"
	"sync/atomic"
)

// SnapshotRegistry tracks the start timestamps of in-flight snapshot
// transactions, slot-indexed by transaction descriptor. It is the
// epoch-tracking half of version-buffer trimming (package mvcc): before a
// retained version still inside an active snapshot's validity window may
// be dropped, the trimmer consults Min() — the oldest snapshot any live
// reader may hold — the same quiescence question Pool.Drain answers for
// retired memory blocks.
//
// Registration is per descriptor slot, not per goroutine: a descriptor
// runs at most one snapshot transaction at a time, and a descriptor handed
// back to its TM (Tx.Release) must detach via Leave so a recycled slot can
// never pin the horizon with a stale timestamp.
type SnapshotRegistry struct {
	// ver counts Enter/Leave transitions; callers that poll Min on a hot
	// path (version-buffer trimming) read it first and reuse their cached
	// minimum while it is unchanged, so steady-state trimming costs one
	// atomic load instead of a mutex plus a slot scan.
	ver atomic.Uint64
	// live counts registered snapshots; atomic so commits can take the
	// "nobody is reading" fast path without the mutex.
	live  atomic.Int64
	mu    sync.Mutex
	slots []uint64 // start+1 while a snapshot is in flight; 0 when idle
}

// Version returns the registration-change counter: it advances on every
// Enter and Leave, so an unchanged Version means an unchanged Min.
func (r *SnapshotRegistry) Version() uint64 { return r.ver.Load() }

// Ensure grows the registry to cover at least n descriptor slots. Called
// on the descriptor mint path, before slot n-1 can ever register.
func (r *SnapshotRegistry) Ensure(n int) {
	r.mu.Lock()
	if n > len(r.slots) {
		grown := make([]uint64, n)
		copy(grown, r.slots)
		r.slots = grown
	}
	r.mu.Unlock()
}

// Enter records that the descriptor in slot holds an active snapshot at
// start timestamp ts.
func (r *SnapshotRegistry) Enter(slot int, ts uint64) {
	r.mu.Lock()
	if slot >= len(r.slots) {
		grown := make([]uint64, slot+1)
		copy(grown, r.slots)
		r.slots = grown
	}
	if r.slots[slot] == 0 {
		r.live.Add(1)
	}
	r.slots[slot] = ts + 1
	r.ver.Add(1)
	r.mu.Unlock()
}

// Leave clears slot's registration. Idempotent: detaching an idle slot
// (the defensive Tx.Release path) is a no-op.
func (r *SnapshotRegistry) Leave(slot int) {
	r.mu.Lock()
	if slot < len(r.slots) && r.slots[slot] != 0 {
		r.slots[slot] = 0
		r.live.Add(-1)
		r.ver.Add(1)
	}
	r.mu.Unlock()
}

// Active returns slot's registered snapshot timestamp (tests).
func (r *SnapshotRegistry) Active(slot int) (uint64, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if slot >= len(r.slots) || r.slots[slot] == 0 {
		return 0, false
	}
	return r.slots[slot] - 1, true
}

// Min returns the oldest registered snapshot timestamp; ok is false when
// no snapshot is in flight (the trimmer may then drop freely).
func (r *SnapshotRegistry) Min() (min uint64, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.live.Load() == 0 {
		return 0, false
	}
	min = ^uint64(0)
	for _, s := range r.slots {
		if s != 0 && s-1 < min {
			min = s - 1
		}
	}
	return min, true
}

// Live reports how many snapshots are currently registered. Lock-free:
// every update commit of an STM with a sidecar reads it once to decide
// whether to version (stamp and publish) at all.
func (r *SnapshotRegistry) Live() int { return int(r.live.Load()) }

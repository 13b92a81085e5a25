// Package tl2 implements the Transactional Locking II algorithm (Dice,
// Shalev, Shavit — DISC 2006) as the comparison baseline of the paper.
//
// TL2 is word-based and time-based like TinySTM but differs on the axes
// the paper's evaluation isolates:
//
//   - commit-time locking: writes are buffered and locks acquired only at
//     commit, so conflicting transactions may perform long doomed
//     traversals (the linked-list behaviour in Figures 3 and 4);
//   - no snapshot extension: a read observing a version newer than the
//     transaction's read version aborts immediately;
//   - read-after-write goes through a Bloom filter plus a write-set scan
//     ("which may be costly when write sets grow large", Section 3.1).
//
// The lock array geometry (#locks, #shifts) is parameterized exactly like
// TinySTM's so the same sweeps can be applied; TL2 has no hierarchical
// array. Memory reclamation reuses the quiescence scheme of package
// reclaim.
package tl2

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"tinystm/internal/mem"
	"tinystm/internal/reclaim"
	"tinystm/internal/txn"
)

// Config parameterizes a TL2 instance.
type Config struct {
	// Space is the memory arena. Required.
	Space *mem.Space
	// Locks is the lock-array size; power of two. Default 2^20 (TL2's
	// reference implementation ships a large fixed table).
	Locks uint64
	// Shifts is the address right-shift applied before lock hashing.
	Shifts uint
	// YieldEvery, when positive, yields the processor after every N
	// transactional loads — the same multi-core interleaving simulation
	// as core.Config.YieldEvery, applied to the baseline for fairness.
	YieldEvery int
}

func (c Config) withDefaults() Config {
	if c.Locks == 0 {
		c.Locks = 1 << 20
	}
	return c
}

func (c Config) validate() error {
	if c.Space == nil {
		return fmt.Errorf("tl2: Config.Space is required")
	}
	if c.Locks == 0 || bits.OnesCount64(c.Locks) != 1 {
		return fmt.Errorf("tl2: Locks (%d) must be a power of two", c.Locks)
	}
	if c.Shifts > 32 {
		return fmt.Errorf("tl2: Shifts (%d) out of range [0,32]", c.Shifts)
	}
	return nil
}

// Lock-word layout: bit 0 = owned; unlocked words carry version<<1;
// locked words carry the owner slot plus the index of the owner's
// acquired-lock record, whose saved pre-acquisition version commit-time
// validation needs for self-locked read-set stripes.
const (
	lockBit   = uint64(1)
	entryBits = 40
	entryMask = (uint64(1) << entryBits) - 1
)

func isOwned(lw uint64) bool { return lw&lockBit != 0 }
func mkOwned(slot, entry int) uint64 {
	return uint64(slot)<<(1+entryBits) | uint64(entry)<<1 | lockBit
}
func ownerSlot(lw uint64) int     { return int(lw >> (1 + entryBits)) }
func ownerEntry(lw uint64) int    { return int(lw >> 1 & entryMask) }
func mkVersion(ver uint64) uint64 { return ver << 1 }
func versionOf(lw uint64) uint64  { return lw >> 1 }
func maxClock() uint64            { return 1<<62 - 1 }

// TM is a TL2 runtime over one mem.Space.
type TM struct {
	space    *mem.Space
	locks    []uint64
	lockMask uint64
	shifts   uint
	yieldN   int

	_     [64]byte
	clock atomic.Uint64
	_     [64]byte

	pool  reclaim.Pool
	mu    sync.Mutex
	descs []*Tx
}

// New creates a TL2 runtime.
func New(cfg Config) (*TM, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	tm := &TM{
		space:    cfg.Space,
		locks:    make([]uint64, cfg.Locks),
		lockMask: cfg.Locks - 1,
		shifts:   cfg.Shifts,
		yieldN:   cfg.YieldEvery,
	}
	return tm, nil
}

// MustNew is New that panics on configuration errors.
func MustNew(cfg Config) *TM {
	tm, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return tm
}

func (tm *TM) lockIndex(addr uint64) uint64 { return (addr >> tm.shifts) & tm.lockMask }

func (tm *TM) loadLock(li uint64) uint64 { return atomic.LoadUint64(&tm.locks[li]) }

func (tm *TM) storeLock(li uint64, lw uint64) { atomic.StoreUint64(&tm.locks[li], lw) }

func (tm *TM) casLock(li uint64, old, new uint64) bool {
	return atomic.CompareAndSwapUint64(&tm.locks[li], old, new)
}

// NewTx registers and returns a descriptor for one worker goroutine.
func (tm *TM) NewTx() *Tx {
	tm.mu.Lock()
	defer tm.mu.Unlock()
	tx := &Tx{tm: tm, slot: len(tm.descs)}
	tm.descs = append(tm.descs, tx)
	return tx
}

func (tm *TM) minActiveStart() uint64 {
	tm.mu.Lock()
	descs := tm.descs
	tm.mu.Unlock()
	min := ^uint64(0)
	for _, tx := range descs {
		if e := tx.startEpoch.Load(); e != 0 && e-1 < min {
			min = e - 1
		}
	}
	return min
}

const drainThreshold = 128

func (tm *TM) maybeDrainLimbo() {
	if tm.pool.Len() < drainThreshold {
		return
	}
	for _, b := range tm.pool.Drain(tm.minActiveStart()) {
		tm.space.Free(mem.Addr(b.Addr), b.Words)
	}
}

// Atomic runs fn as an update-capable transaction, retrying until commit.
func (tm *TM) Atomic(tx *Tx, fn func(*Tx)) { tm.atomic(tx, fn, false) }

// AtomicRO runs fn read-only: no read set is kept (TL2's read-only mode);
// if fn writes, the attempt restarts in update mode.
func (tm *TM) AtomicRO(tx *Tx, fn func(*Tx)) { tm.atomic(tx, fn, true) }

// atomic is the one retry loop behind Atomic and AtomicRO: Begin, body,
// Commit, and a failed attempt restarts at once.
func (tm *TM) atomic(tx *Tx, fn func(*Tx), ro bool) {
	if tx.tm != tm {
		panic("tl2: descriptor belongs to a different TM")
	}
	if tx.inTx {
		fn(tx) // flat nesting
		return
	}
	tx.upgr = false
	for {
		tx.Begin(ro && !tx.upgr)
		if tx.runBody(fn) && tx.Commit() {
			return
		}
	}
}

// Stats sums counters across descriptors.
func (tm *TM) Stats() txn.Stats {
	var s txn.Stats
	tm.mu.Lock()
	descs := tm.descs
	tm.mu.Unlock()
	for _, tx := range descs {
		s.Commits += tx.commits.Load()
		s.Aborts += tx.aborts.Load()
		for i := range tx.abortsByKind {
			s.AbortsByKind[i] += tx.abortsByKind[i].Load()
		}
		s.LocksValidated += tx.locksValidated.Load()
	}
	return s
}

var (
	_ txn.Tx          = (*Tx)(nil)
	_ txn.System[*Tx] = (*TM)(nil)
)

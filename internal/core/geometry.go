package core

import "sync/atomic"

// geometry bundles the runtime-tunable lock-array state: the versioned
// lock array itself, the address hash parameters, and the hierarchical
// counter array. A TM swaps in a fresh geometry, every lock word and
// counter at 0, during Reconfigure and clock roll-over while the world is
// frozen; transactions capture the current geometry once per attempt at
// begin time.
type geometry struct {
	locks    []uint64 // versioned write-locks, len == lockMask+1
	lockMask uint64
	shifts   uint
	hier     []padCounter // h counters; nil when h == 1
	hierMask uint64       // h - 1
}

// padCounter keeps each hierarchical counter on its own cache line: the
// counters are incremented with atomic operations by every update
// transaction's first write per bucket (paper Section 3.2 cautions that
// these atomic operations are the cost side of the trade-off).
type padCounter struct {
	v atomic.Uint64
	_ [56]byte
}

func newGeometry(p Params) *geometry {
	g := &geometry{
		locks:    make([]uint64, p.Locks),
		lockMask: p.Locks - 1,
		shifts:   p.Shifts,
		hierMask: p.Hier - 1,
	}
	if p.Hier > 1 {
		g.hier = make([]padCounter, p.Hier)
	}
	return g
}

func (g *geometry) params() Params {
	return Params{Locks: g.lockMask + 1, Shifts: g.shifts, Hier: g.hierMask + 1}
}

// lockIndex maps a word address to its lock (the paper's per-stripe hash:
// right-shift then modulo the lock-array size).
func (g *geometry) lockIndex(addr uint64) uint64 {
	return (addr >> g.shifts) & g.lockMask
}

// hierIndex maps a word address to its hierarchical counter. Because h
// divides l and both hashes shift identically, two addresses mapped to the
// same lock always map to the same counter (the consistency requirement of
// Section 3.2).
func (g *geometry) hierIndex(addr uint64) uint64 {
	return (addr >> g.shifts) & g.hierMask
}

func (g *geometry) hierEnabled() bool { return g.hier != nil }

func (g *geometry) loadLock(li uint64) uint64 {
	return atomic.LoadUint64(&g.locks[li])
}

func (g *geometry) storeLock(li uint64, lw uint64) {
	atomic.StoreUint64(&g.locks[li], lw)
}

func (g *geometry) casLock(li uint64, old, new uint64) bool {
	return atomic.CompareAndSwapUint64(&g.locks[li], old, new)
}

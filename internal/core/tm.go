package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"tinystm/internal/mem"
	"tinystm/internal/mvcc"
	"tinystm/internal/obs"
	"tinystm/internal/reclaim"
	"tinystm/internal/txn"
)

// TM is a TinySTM instance: the shared lock array, the global clock, the
// hierarchical counters and the bookkeeping needed to freeze the world for
// clock roll-over and dynamic reconfiguration. A TM protects exactly one
// mem.Space. All methods are safe for concurrent use.
type TM struct {
	space    *mem.Space
	design   Design
	maxClock uint64
	yieldN   int

	// baseCfg is the defaulted construction-time configuration. configFor
	// substitutes the tunable triple into a copy, so Reconfigure validates
	// through exactly the field set New saw and cannot drift as Config
	// grows.
	baseCfg Config

	// aggCommits/aggAborts are the O(1) aggregate counters: descriptors
	// flush into them once per commit/rollback, so samplers (the tuning
	// runtime's throughput meter) never take tm.mu or scan descriptors.
	// They intentionally duplicate the per-descriptor stats: Stats() keeps
	// its full snapshot path, CommitAbortCounts is the lock-free fast one.
	aggCommits atomic.Uint64
	aggAborts  atomic.Uint64
	// aggTooOld counts snapshot-too-old aborts the same way.
	aggTooOld atomic.Uint64

	// mvcc is the commit-ordered version sidecar backing snapshot-mode
	// read-only transactions; nil unless Config.Snapshots.
	mvcc *mvcc.Store

	// redoHook is the installed durability hook (SetRedoHook); nil when
	// no durability layer is attached. Descriptors load it once per
	// update commit and call it while their write locks are held.
	redoHook redoHookPtr

	// obsHook is the installed observability sink (SetObs); nil when the
	// layer is not attached. The atomic retry loop loads it once per
	// block and nil-checks it at each observation point.
	obsHook atomic.Pointer[obs.TMObs]

	clk clock
	// clockEpoch counts clock resets: it is bumped (under the freeze
	// barrier, so no transaction is mid-commit) at every roll-over and
	// Reconfigure. Timestamps restart from zero in each epoch, so
	// (epoch, ts) is the total commit order the redo hook receives and a
	// checkpoint scan records as its position.
	clockEpoch atomic.Uint64
	geo        atomic.Pointer[geometry]
	fz         freezer

	pool reclaim.Pool

	mu    sync.Mutex // descriptor registry
	descs []*Tx
	// free holds released descriptors for reuse: long-running servers that
	// keep spawning worker goroutines would otherwise exhaust maxSlots with
	// no way to recover. Guarded by mu.
	free []*Tx
	// retired accumulates the counters of released descriptors so Stats()
	// survives descriptor recycling (a reused descriptor restarts its
	// counters from zero). Guarded by mu.
	retired   txn.Stats
	rollOvers atomic.Uint64
	reconfigs atomic.Uint64
}

// drainThreshold is the limbo size at which commits attempt reclamation.
const drainThreshold = 128

// minActiveStart returns the oldest snapshot start among active
// transactions, or the maximum value when none are active.
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

// maybeDrainLimbo reclaims retired blocks whose freeing commit precedes
// every active snapshot.
func (tm *TM) maybeDrainLimbo() {
	if tm.pool.Len() < drainThreshold {
		return
	}
	for _, b := range tm.pool.Drain(tm.minActiveStart()) {
		tm.space.Free(mem.Addr(b.Addr), b.Words)
	}
}

// drainLimboAll reclaims every retired block. Only callable while frozen.
func (tm *TM) drainLimboAll() {
	for _, b := range tm.pool.DrainAll() {
		tm.space.Free(mem.Addr(b.Addr), b.Words)
	}
}

// New creates a TM over cfg.Space with the given parameters.
func New(cfg Config) (*TM, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	tm := &TM{
		space:    cfg.Space,
		design:   cfg.Design,
		maxClock: cfg.MaxClock,
		yieldN:   cfg.YieldEvery,
		baseCfg:  cfg,
	}
	tm.fz.init()
	tm.geo.Store(newGeometry(Params{Locks: cfg.Locks, Shifts: cfg.Shifts, Hier: cfg.Hier}))
	if cfg.Snapshots {
		tm.mvcc = mvcc.New(mvcc.Config{
			Words:  cfg.Space.Cap(),
			Shards: cfg.SnapshotShards,
			Budget: cfg.SnapshotBudget,
		})
	}
	return tm, nil
}

// MustNew is New that panics on configuration errors; convenient in
// examples and tests where the configuration is a literal.
func MustNew(cfg Config) *TM {
	tm, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return tm
}

// Space returns the memory arena this TM protects.
func (tm *TM) Space() *mem.Space { return tm.space }

// Design returns the memory-access strategy of this TM.
func (tm *TM) Design() Design { return tm.design }

// Params returns the current tunable triple (#locks, #shifts, h).
func (tm *TM) Params() Params { return tm.geo.Load().params() }

// ClockValue returns the current global clock (diagnostics and tests).
func (tm *TM) ClockValue() uint64 { return tm.clk.now() }

// SetObs installs (or, with nil, detaches) the observability sink:
// commit/abort duration histograms plus the sampled flight recorder.
// Safe on a live TM; blocks that already loaded the previous hook finish
// under it.
func (tm *TM) SetObs(o *obs.TMObs) { tm.obsHook.Store(o) }

// Obs returns the installed observability sink, nil when detached.
func (tm *TM) Obs() *obs.TMObs { return tm.obsHook.Load() }

// NewTx registers and returns a fresh transaction descriptor. Descriptors
// are affine to one goroutine at a time and are reused across
// transactions; goroutines that exit for good should hand theirs back with
// Release so the slot can be recycled.
func (tm *TM) NewTx() *Tx {
	tm.mu.Lock()
	defer tm.mu.Unlock()
	if n := len(tm.free); n > 0 {
		tx := tm.free[n-1]
		tm.free = tm.free[:n-1]
		tx.released = false
		return tx
	}
	if len(tm.descs) >= maxSlots {
		panic(fmt.Sprintf("core: more than %d transaction descriptors", maxSlots))
	}
	tx := &Tx{tm: tm, slot: len(tm.descs)}
	// Start the write sets on their inline segments so small transactions
	// never touch the heap (the read set is wired in Begin, which owns
	// the partition layout).
	tx.wset = tx.winline[:0]
	tx.owned = tx.oinline[:0]
	tx.undo = tx.uinline[:0]
	tm.descs = append(tm.descs, tx)
	if tm.mvcc != nil {
		tm.mvcc.EnsureSlots(len(tm.descs))
	}
	return tx
}

// Release returns a descriptor to its TM for reuse by a later NewTx. The
// descriptor must not be inside a transaction and must not be used again
// by the caller. Its counters are folded into the TM-level retired
// aggregate first, so Stats() loses nothing to recycling.
func (tx *Tx) Release() {
	if tx.inTx {
		panic("core: Release of descriptor inside a transaction")
	}
	tm := tx.tm
	tm.mu.Lock()
	defer tm.mu.Unlock()
	if tx.released {
		panic("core: descriptor released twice")
	}
	// Detach from the MVCC horizon tracking: a released descriptor must
	// never pin retained versions. Normally the registration is already
	// gone (commit/rollback clear it), but a slot recycled after an
	// abnormal unwind would otherwise hold the sidecar's horizon back
	// forever — trimming could never advance past its stale snapshot.
	if tm.mvcc != nil {
		tm.mvcc.Leave(tx.slot)
	}
	tx.stats.snapshotInto(&tm.retired)
	tx.stats.reset()
	tx.released = true
	tm.free = append(tm.free, tx)
}

// Atomic runs fn as an update-capable transaction, retrying on conflict
// until it commits. Panics from fn other than the STM's internal abort
// signal propagate to the caller after the transaction rolls back.
func (tm *TM) Atomic(tx *Tx, fn func(*Tx)) {
	tm.atomic(tx, fn, false, false)
}

// AtomicRO runs fn as a read-only transaction: no read set is maintained
// and the snapshot is never extended (paper Section 3.1: "read-only
// transactions are particularly efficient"). If fn writes, the attempt
// restarts transparently in update mode.
func (tm *TM) AtomicRO(tx *Tx, fn func(*Tx)) {
	tm.atomic(tx, fn, true, false)
}

// atomic is the one retry loop behind Atomic, AtomicRO and AtomicSnap.
// With an observability sink installed it also times every attempt into
// the commit/abort histograms and, for sampled blocks, emits the
// begin/retry/abort/commit event trace; detached, the sink costs the one
// pointer load and a predictable branch per observation point.
func (tm *TM) atomic(tx *Tx, fn func(*Tx), ro, snap bool) {
	if tx.tm != tm {
		panic("core: descriptor belongs to a different TM")
	}
	if tx.inTx {
		// Flat nesting: an inner atomic block merges into the enclosing
		// transaction, whatever mode it runs in (TinySTM's nesting model).
		fn(tx)
		return
	}
	o := tm.obsHook.Load()
	sampled := o != nil && o.SampleTx()
	tx.attempts = 0
	tx.upgr = false
	for {
		tx.attempts++
		var t0 time.Time
		if o != nil {
			if sampled {
				kind := obs.EvRetry
				if tx.attempts == 1 {
					kind = obs.EvBegin
				}
				tm.trace(tx, o, kind, 0, 0)
			}
			t0 = time.Now()
		}
		tx.maybeRollOverOnBegin()
		if snap {
			tx.BeginSnap()
		} else {
			tx.Begin(ro && !tx.upgr)
		}
		committed := tx.runBody(fn) && tx.Commit()
		if o != nil {
			d := uint64(time.Since(t0))
			kind, cause := obs.EvCommit, txn.AbortKind(0)
			if committed {
				o.OnCommit(d)
			} else {
				kind, cause = obs.EvAbort, tx.lastAbort
				o.OnAbort(d, cause)
			}
			if sampled {
				tm.trace(tx, o, kind, cause, d)
			}
		}
		switch {
		case snap:
			if committed {
				return
			}
			// AbortSnapshotTooOld retries on a fresh snapshot with no
			// wait: it is taken at the current clock, past whatever
			// trimmed the old one. If fn wrote,
			// snapshot mode cannot serve it: rerun the whole block as a
			// regular update transaction.
			if tx.upgr {
				snap, tx.attempts = false, 0
			}
		case committed:
			return
		default:
			// The attempt failed and rolled back; a retry that lost to a
			// lock waits for that lock first.
			tx.awaitConflict()
		}
	}
}

// trace emits one flight-recorder event for a sampled atomic block.
func (tm *TM) trace(tx *Tx, o *obs.TMObs, kind obs.EventKind, cause txn.AbortKind, durNs uint64) {
	p := tm.geo.Load().params()
	o.Trace(obs.Event{
		TimeUnixNano: time.Now().UnixNano(),
		Kind:         kind,
		Cause:        cause,
		Slot:         uint32(tx.slot),
		Attempt:      uint32(tx.attempts),
		DurNs:        durNs,
		Locks:        p.Locks,
		Shifts:       uint32(p.Shifts),
		Hier:         p.Hier,
	})
}

// runBody executes fn, converting the abort sentinel into a false return.
// The transaction is already rolled back when the sentinel unwinds.
func (tx *Tx) runBody(fn func(*Tx)) (ok bool) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if _, is := r.(abortSignal); is {
			ok = false
			return
		}
		// Foreign panic: roll back cleanly, then propagate.
		if tx.inTx {
			tx.rollback(txn.AbortExplicit)
		}
		panic(r)
	}()
	fn(tx)
	return true
}

// rollOver resets the clock and all version numbers behind the freeze
// barrier (paper Section 3.1, "Clock Management"). Safe to call from
// multiple racing initiators: the reset is double-checked under the
// barrier.
func (tm *TM) rollOver() {
	tm.fz.freeze()
	// Double-check under the barrier: another initiator may have already
	// reset the clock while we waited.
	if tm.clk.exhausted(tm.maxClock) {
		tm.drainLimboAll() // old-epoch timestamps become meaningless
		tm.clk.reset()
		tm.clockEpoch.Add(1)
		tm.geo.Load().resetVersions()
		if tm.mvcc != nil {
			// Retained versions carry old-epoch timestamps; drop them all
			// (no snapshot can be active behind the barrier).
			tm.mvcc.Reset()
		}
		tm.rollOvers.Add(1)
	}
	tm.fz.unfreeze()
}

// maybeRollOverOnBegin performs clock roll-over before starting a new
// attempt if the clock is exhausted (transactions also detect this at
// commit time; checking at begin keeps tiny MaxClock configurations live).
// rollOver repeats the check under the barrier.
func (tx *Tx) maybeRollOverOnBegin() {
	if tx.tm.clk.exhausted(tx.tm.maxClock) {
		tx.tm.rollOver()
	}
}

// Reconfigure atomically replaces the tunable parameters (#locks, #shifts,
// h) of a live TM (paper Section 4.2). It freezes the world with the
// roll-over barrier, swaps in a fresh zeroed lock array, resets the clock
// (all versions restart from zero), and resumes. In-flight transactions
// abort and retry under the new geometry. With an observability sink
// attached, the time from the freeze to the release lands in its
// FreezeNs histogram.
func (tm *TM) Reconfigure(p Params) error {
	cfg := tm.configFor(p)
	if err := cfg.validate(); err != nil {
		return err
	}
	start := time.Now()
	tm.fz.freeze()
	tm.drainLimboAll()
	tm.geo.Store(newGeometry(p))
	tm.clk.reset()
	tm.clockEpoch.Add(1)
	if tm.mvcc != nil {
		// The clock reset invalidates every retained timestamp, and the
		// new geometry remaps stripes besides.
		tm.mvcc.Reset()
	}
	tm.reconfigs.Add(1)
	tm.fz.unfreeze()
	if o := tm.obsHook.Load(); o != nil {
		o.FreezeNs.Record(uint64(time.Since(start)))
	}
	return nil
}

// configFor returns the TM's construction-time configuration with the
// tunable triple replaced by p. Both New and Reconfigure validate through
// this one Config value.
func (tm *TM) configFor(p Params) Config {
	cfg := tm.baseCfg
	cfg.Locks, cfg.Shifts, cfg.Hier = p.Locks, p.Shifts, p.Hier
	return cfg
}

// Stats sums commit/abort/validation counters across all descriptors plus
// the retired aggregate of released ones. This is the full snapshot path;
// samplers on a period cadence should prefer CommitAbortCounts, which
// reads two atomics instead of locking the registry and scanning.
func (tm *TM) Stats() txn.Stats {
	tm.mu.Lock()
	// The scan stays under mu so a concurrent Release cannot move counters
	// into retired after we copied it but before we reach the descriptor
	// (which would make successive snapshots non-monotonic).
	s := tm.retired
	for _, tx := range tm.descs {
		tx.stats.snapshotInto(&s)
	}
	tm.mu.Unlock()
	s.RollOvers = tm.rollOvers.Load()
	s.Reconfigs = tm.reconfigs.Load()
	if tm.mvcc != nil {
		s.VersionsPublished, s.VersionsTrimmed = tm.mvcc.Counts()
	}
	return s
}

// CommitAbortCounts returns the aggregate commit and abort counters. O(1),
// lock-free, and safe on any goroutine: this is the sampler the tuning
// runtime polls every period without perturbing the transaction hot path.
func (tm *TM) CommitAbortCounts() (commits, aborts uint64) {
	return tm.aggCommits.Load(), tm.aggAborts.Load()
}

// DescriptorCounts reports how many descriptors have been minted over the
// TM's lifetime and how many of those currently sit on the free list
// (diagnostics; leak tests).
func (tm *TM) DescriptorCounts() (minted, free int) {
	tm.mu.Lock()
	defer tm.mu.Unlock()
	return len(tm.descs), len(tm.free)
}

// Frozen reports whether the TM is currently at a barrier (tests).
func (tm *TM) Frozen() bool { return tm.fz.isFrozen() }

// Compile-time checks: *Tx satisfies the shared transaction interface and
// *TM the system interfaces used by the generic harness and store.
var (
	_ txn.Tx                  = (*Tx)(nil)
	_ txn.System[*Tx]         = (*TM)(nil)
	_ txn.SnapshotSystem[*Tx] = (*TM)(nil)
)

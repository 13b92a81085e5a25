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

	// snapRestarts counts snapshot-too-old aborts, split by the cause
	// loadSnap gave up on.
	snapRestarts [NSnapRestarts]atomic.Uint64

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
	// clockEpoch counts clock roll-overs: it is bumped under the freeze
	// barrier, so no transaction is mid-commit, whenever the clock
	// rewinds to zero. Timestamps restart from zero in each epoch, so
	// (epoch, ts) is the total commit order the redo hook receives and a
	// checkpoint scan records as its position. Reconfigure keeps both.
	clockEpoch atomic.Uint64
	geo        atomic.Pointer[geometry]
	fz         freezer

	pool reclaim.Pool

	mu sync.Mutex // descriptor registry
	// descs is every descriptor ever minted, released ones included; it
	// only grows, so a copy of the slice header taken under mu can be
	// scanned without it. A descriptor's counters live as long as its
	// slot, so summing descs is the TM's total.
	descs []*Tx
	// free holds released descriptors for reuse: long-running servers that
	// keep spawning worker goroutines would otherwise exhaust maxSlots with
	// no way to recover. Guarded by mu.
	free      []*Tx
	rollOvers atomic.Uint64
	reconfigs atomic.Uint64
}

// drainThreshold is the limbo size at which commits attempt reclamation.
const drainThreshold = 128

// minActiveStart returns the oldest snapshot start among active
// transactions, or the maximum value when none are active.
func (tm *TM) minActiveStart() uint64 {
	min := ^uint64(0)
	for _, tx := range tm.descriptors() {
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
// by the caller. Its counters stay with its slot: the descriptor NewTx
// reissues continues them, so Stats() loses nothing to recycling.
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
		var t0 time.Duration
		if o != nil {
			if sampled {
				kind := obs.EvRetry
				if tx.attempts == 1 {
					kind = obs.EvBegin
				}
				tm.trace(tx, o, kind, 0, 0)
			}
			t0 = obs.Mono()
		}
		tx.maybeRollOverOnBegin()
		if snap {
			tx.BeginSnap()
		} else {
			tx.Begin(ro && !tx.upgr)
		}
		committed := tx.runBody(fn) && tx.Commit()
		if o != nil {
			d := uint64(obs.Mono() - t0)
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

// rollOver rewinds the clock behind the freeze barrier (paper Section
// 3.1, "Clock Management": "we reset the clock and all version numbers").
// It differs from Reconfigure only in the rewind: the clock, its epoch and
// limbo, whose timestamps mean nothing against the new epoch's. The fresh
// geometry it installs with the live triple zeroes every version number.
// Safe to call from multiple racing initiators: the reset is
// double-checked under the barrier.
func (tm *TM) rollOver() {
	tm.Quiesce(func() {
		// Double-check under the barrier: another initiator may have
		// already reset the clock while we waited.
		if tm.clk.exhausted(tm.maxClock) {
			tm.rewind()
		}
	})
}

// rewind is the roll-over proper: it frees limbo, rewinds the clock into
// a new epoch and zeroes every version number. Only callable while
// frozen.
func (tm *TM) rewind() {
	for _, b := range tm.pool.DrainAll() {
		tm.space.Free(mem.Addr(b.Addr), b.Words)
	}
	tm.clk.reset()
	tm.clockEpoch.Add(1)
	tm.swapGeometry(tm.Params())
	tm.rollOvers.Add(1)
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

// swapGeometry installs a fresh geometry for p, every lock word and
// hierarchical counter at 0, and empties the sidecar, whose shards follow
// the stripes. Only callable while frozen.
func (tm *TM) swapGeometry(p Params) {
	tm.geo.Store(newGeometry(p))
	if tm.mvcc != nil {
		tm.mvcc.Reset()
	}
}

// Reconfigure atomically replaces the tunable parameters (#locks, #shifts,
// h) of a live TM (paper Section 4.2): it freezes the world with the
// roll-over barrier, installs a fresh geometry, empties the sidecar and
// resumes (Quiesce). It does not touch the clock, its epoch or limbo.
// Transactions parked at Begin start under the new geometry.
//
// Why keeping the clock is sound. Three premises hold at the swap:
//
//   - (Q) Every attempt is quiescent: freeze waits for each one to commit
//     or roll back, and Begin parks new ones, so no attempt holds a lock,
//     a read set, a geometry pointer or a snapshot across the move.
//   - (Z) The new lock words are at version 0, which is <= the start of
//     every later attempt.
//   - (N) Every timestamp the TM still holds — a written record, a
//     retained entry's interval, a limbo block's retirement — came from a
//     commit or a freshVersion before the freeze, so it is <= now, the
//     clock the swap leaves alone. Every later start is >= now, so each
//     stays comparable with it.
//
// The obligations, one piece of state at a time:
//
//   - Hierarchical counters and hsnap. The new geometry's counters start
//     at 0, and an attempt snapshots a counter (hsnap) only in the
//     geometry it loaded at Begin (Q), so no snapshot meets a counter of
//     another geometry. Their values are never compared with the clock.
//   - Write-through incarnations and freshVersion. A new lock word carries
//     incarnation 0 and version 0 (Z). An incarnation overflow takes
//     freshVersion from the same unrewound clock, so its version exceeds
//     every version issued before, in either geometry, as it must.
//   - The capture window. Begin empties it and Alloc opens it inside one
//     attempt (Q): no window spans the move. Its births are stamped at the
//     commit's timestamp like any other write.
//   - Reclamation pins. A limbo block is freed once its retirement
//     timestamp is <= every active start, snapshot pins included. By (N)
//     those timestamps stay <= every later start, so the blocks drain at
//     the next maybeDrainLimbo as if no move had happened; nothing forces
//     a drain under the barrier.
//   - The sidecar. Every written record is <= now (N), so it reads
//     live-valid for every later snapshot S >= now: the live word is the
//     value at S, since every write past S stamps its word (the cases
//     above mvcc's Publish). A record passes S only through a versioned
//     commit after the move. The first such commit on a word, at ts,
//     retains the pre-image from min(From, w) to ts, where w <= S is the
//     record it replaces and From is the stripe's version in the new
//     geometry: 0 if no commit has released the stripe since the move, so
//     the word's last write came before it, or else a timestamp >= w. The
//     entry covers S, and its value was current at S, so a move costs a
//     snapshot no miss. The retained entries are still cleared: they hang
//     off shards chosen by the old stripes, and every entry ends at or
//     before now, so no later snapshot (start >= now) could read one.
//   - The redo hook's (epoch, ts) stamp. The epoch stays and timestamps
//     keep rising across the move, so the WAL sees one epoch with
//     increasing timestamps. Replay folds records in append order
//     (internal/wal/replay.go), and a checkpoint's position is
//     informational, so neither format changes.
func (tm *TM) Reconfigure(p Params) error {
	cfg := tm.configFor(p)
	if err := cfg.validate(); err != nil {
		return err
	}
	tm.Quiesce(func() {
		tm.swapGeometry(p)
		tm.reconfigs.Add(1)
	})
	return nil
}

// Quiesce runs fn while every attempt of the TM is quiescent: it raises
// the roll-over barrier (paper Section 4.2), waits for each running
// attempt to commit or roll back, runs fn, and lowers the barrier, even
// when fn panics. Attempts that Begin meanwhile park until it is down.
// Reconfigure and the clock roll-over run under it, and so do a kvstore
// shard's growth, which rewrites words of the space with plain mem.Space
// loads and stores, and an Irrevocable run (a bulk batch). With an
// observability sink attached, the time from raising the barrier to
// lowering it — the drain plus fn, not a wait behind another initiator's
// freeze — lands in its FreezeNs histogram.
// The caller must not be inside an attempt: the barrier would wait for
// it forever.
//
// Why a plain rewrite of the space under the barrier needs no STM
// bookkeeping, in the style of Reconfigure's argument:
//
//   - (Q) No attempt or snapshot straddles fn: freeze waits for each one
//     to finish, and Begin parks new ones. So no attempt holds a lock, a
//     read set, a write-through undo record, a capture window or a
//     pointer it loaded across the rewrite, and a block fn frees is
//     unreachable by the time any attempt runs again: fn may return it to
//     the space at once, with no limbo.
//   - (U) fn touches no lock word, neither the clock nor its epoch, no
//     sidecar record or retained version, and no hierarchical counter.
//     Every version number and every record therefore stays what the
//     last commit before the freeze left, and so <= now, the clock at the
//     freeze.
//   - (S) Every later attempt starts at a clock value >= now, and every
//     later snapshot too.
//
// Consequences. A later classic attempt that loads a rewritten word
// finds its stripe at a version <= now <= its start and accepts the live
// value, which is the rewrite's; commit-time validation compares lock
// words, which (U) left alone. A later snapshot S >= now reads a
// rewritten word live when its stripe is at most S; when alias writes
// past S have moved the stripe, the word's record is <= now <= S by (U),
// which reads live-valid (the cases above mvcc's Publish), and the live
// word is the value at S because every write past S stamps its word. The
// words fn allocates carry no birth for the same reason an unversioned
// commit's blocks need none: every snapshot that can reach them starts
// after they were written. The WAL sees no record: a rewrite that
// changes no key's value has nothing to replay.
//
// The stall is the drain plus fn's run time, and fn's grows with what it
// rewrites: a kvstore shard's growth copies each entry into a directory
// allocated, and its pages touched, before the freeze, 50–57 ns an entry
// (BenchmarkShardGrow's freeze-ns/entry, medians of two 6-run sets on a
// 2-vCPU host; relinking 3-word chain nodes took 36–38). A 1 024-line
// shard grows at 5 121 entries and holds the barrier ~250–290 µs; the 32
// growths of a 65 536-key preload copy ~25.6 k entries in all, ~1.3 ms,
// where the chains' 41 relinked ~57 k nodes, ~2.0 ms. A block allocated
// before the freeze is reachable only once fn links it, so the argument
// above holds for it as for one fn allocates. A bulk batch's growths are
// such growths too: they follow its Irrevocable run, each in a Quiesce of
// its own.
func (tm *TM) Quiesce(fn func()) {
	start := tm.fz.freeze()
	defer func() {
		tm.fz.unfreeze()
		if o := tm.obsHook.Load(); o != nil {
			o.FreezeNs.Record(uint64(time.Since(start)))
		}
	}()
	fn()
}

// configFor returns the TM's construction-time configuration with the
// tunable triple replaced by p. Both New and Reconfigure validate through
// this one Config value.
func (tm *TM) configFor(p Params) Config {
	cfg := tm.baseCfg
	cfg.Locks, cfg.Shifts, cfg.Hier = p.Locks, p.Shifts, p.Hier
	return cfg
}

// Stats sums commit/abort/validation counters in one pass over the
// descriptor table, released descriptors included. Every counter only
// grows, so successive snapshots are monotonic.
func (tm *TM) Stats() txn.Stats {
	var s txn.Stats
	for _, tx := range tm.descriptors() {
		tx.stats.snapshotInto(&s)
	}
	s.RollOvers = tm.rollOvers.Load()
	s.Reconfigs = tm.reconfigs.Load()
	if tm.mvcc != nil {
		s.VersionsPublished, s.VersionsTrimmed = tm.mvcc.Counts()
	}
	return s
}

// CommitAbortCounts returns the commit and abort totals: one pass over the
// descriptor table, safe on any goroutine and monotonic. It is the
// sampler the tuning runtime polls every period; the transaction hot path
// writes only its own descriptor's counters.
func (tm *TM) CommitAbortCounts() (commits, aborts uint64) {
	for _, tx := range tm.descriptors() {
		commits += tx.stats.commits.Load()
		aborts += tx.stats.aborts.Load()
	}
	return commits, aborts
}

// descriptors returns the descriptor table, to be scanned without mu
// (see descs).
func (tm *TM) descriptors() []*Tx {
	tm.mu.Lock()
	defer tm.mu.Unlock()
	return tm.descs
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
func (tm *TM) Frozen() bool { return tm.fz.frozen.Load() != 0 }

// Compile-time checks: *Tx satisfies the shared transaction interface and
// *TM the system interface of the generic harness. kvstore needs neither:
// it calls *TM and *Tx directly.
var (
	_ txn.Tx          = (*Tx)(nil)
	_ txn.System[*Tx] = (*TM)(nil)
)

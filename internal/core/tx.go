package core

import (
	"runtime"
	"sync/atomic"
	"time"

	"tinystm/internal/mem"
	"tinystm/internal/mvcc"
	"tinystm/internal/txn"
)

// abortSignal is the private panic sentinel that unwinds an aborted
// transaction back to the Atomic retry loop. It never escapes the package.
type abortSignal struct{}

// wsetEntry is one write-back write-set record. Entries covered by the
// same lock are chained through next, and the lock word points at the
// chain head, giving O(1) read-after-write (paper Section 3.1: "the
// address stored in the owned lock allows a transaction to quickly locate
// in its write set the updated memory locations covered by the lock").
type wsetEntry struct {
	addr     mem.Addr
	value    uint64
	lockIdx  uint64
	prevLock uint64 // unlocked word to restore on abort (chain heads only)
	// old captures the committed value this entry is about to supersede;
	// filled during the commit write-back phase only when the commit is
	// versioned (the pre-image it publishes to the MVCC sidecar).
	old  uint64
	next int32 // index of next entry under the same lock; -1 ends
}

// lockRec is one write-through owned-lock record: which lock we hold and
// the unlocked word it carried before acquisition.
type lockRec struct {
	lockIdx  uint64
	prevLock uint64
}

// undoEntry is one write-through undo-log record.
type undoEntry struct {
	addr mem.Addr
	old  uint64
}

// rsetEntry is one read-set record: the lock covering the read address and
// the version observed. Read sets are partitioned into h parts, one per
// hierarchical counter (Section 3.2).
type rsetEntry struct {
	lockIdx uint64
	version uint64
}

// allocRec tracks transactional memory management (Section 3.1, "Memory
// Management"): allocations are released on abort; frees take effect only
// at commit.
type allocRec struct {
	addr  mem.Addr
	words int
}

// Tx is a transaction descriptor. A descriptor belongs to one worker
// goroutine and is reused across transactions; it must not be shared.
//
// Typical use goes through TM.Atomic, which retries until commit. The
// low-level Begin/Load/Store/Commit API is exported for tests and for
// callers that need manual control over interleavings.
type Tx struct {
	tm   *TM
	slot int

	geo    *geometry
	design Design
	inTx   bool
	ro     bool // read-only attempt: no read set, abort instead of extend
	snap   bool // snapshot-mode attempt: reads served at a fixed timestamp
	upgr   bool // read-only attempt wrote; retry as update
	// released marks a descriptor handed back via Release: it sits on the
	// TM free list and must not run transactions until NewTx re-issues it.
	released bool
	// capWrote marks an attempt that stored to (or freed) a word of its
	// capture window: it commits as an update, taking a timestamp (and,
	// when versioned, stamping its births), though it may hold no lock.
	capWrote bool
	// irrev marks a run of TM.Irrevocable: the capture window spans the
	// space, and each store to a word outside the run's latest allocation
	// first logs the word's value in undo, for a panic to restore.
	irrev bool

	// verShift is a hot-path cache set at Begin: it avoids a per-load
	// branch on the design (write-back versions sit at bit 1,
	// write-through at bit 4 past the incarnation field).
	verShift uint

	// The capture window [capAddr, capAddr+capN): the attempt's most
	// recent allocation, which no other transaction can reach yet. Alloc
	// sets it, begin empties it (capN = 0), and a block leaves it at the
	// next Alloc for good. Load, Store and Free serve its words straight
	// from the space — no lock, no log entry — after one subtract and
	// compare; memmgmt.go argues why that is sound.
	capAddr uint64
	capN    uint64

	// Cooperative-yield state (Config.YieldEvery): simulates multi-core
	// interleaving on few-core hosts. opBudget counts DOWN so the Load
	// fast path pays one decrement-and-test instead of an enabled-check
	// plus a counter compare; loadTick (the cold half) refills it.
	yieldEvery int
	opBudget   int

	start uint64 // snapshot validity range [start, end]
	end   uint64

	// Write-back state.
	wset []wsetEntry

	// Write-through state.
	owned []lockRec
	undo  []undoEntry

	// Read set, partitioned by hierarchical bucket (one part when h==1).
	rparts  [][]rsetEntry
	nparts  int
	rmask   mask256
	hsnap   [MaxHier]uint64 // hierarchical counter values at first access
	hacq    [MaxHier]uint32 // own lock acquisitions per bucket
	hactive []uint8         // buckets touched this attempt (for reset)

	allocs []allocRec
	frees  []allocRec
	// freed holds the addresses in frees, so Free refuses a duplicate in
	// O(1).
	freed addrSet

	// Hot-path counters batched into plain fields (the owning goroutine
	// is the only writer during an attempt) and flushed into the atomic
	// stats at commit/rollback.
	dupReads         uint64
	snapLiveReads    uint64
	snapVersionReads uint64

	// redo accumulates the attempt's logical redo records (Tx.Redo);
	// redoTicket is the durability ticket the hook returned for the most
	// recent commit; redoCommits batches the stats counter like the other
	// hot-path counters.
	redo        []txn.RedoOp
	redoTicket  txn.DurableTicket
	redoRecords uint64

	// pub is the reusable pre-image staging buffer publishVersions fills
	// each versioned commit (pre-images only: births are stamped into
	// the sidecar directly); pubSeen is its reusable write-through dedupe
	// scratch (first undo record per address wins); allocSpans is the
	// address-ordered, merged copy of allocs that tells fresh words from
	// pre-existing ones.
	pub        []mvcc.Version
	pubSeen    addrSet
	allocSpans []allocRec

	attempts int // attempts of the current atomic block
	// lastAbort classifies the most recent rollback, read by the atomic
	// retry loop's instrumentation to bucket the failed attempt's
	// duration by cause.
	lastAbort txn.AbortKind

	// waitLock is the lock word that beat the attempt (recorded by
	// resolveConflict) and waitWord the value it held then; the retry
	// loop waits for the word to change before restarting
	// (awaitConflict). Nil when the attempt lost to no lock; cleared at
	// every Begin.
	waitLock *uint64
	waitWord uint64

	// startEpoch publishes start+1 while the transaction is active (zero
	// when idle); the reclaimer scans it to find the oldest snapshot any
	// live transaction may hold.
	startEpoch atomic.Uint64

	// lastCommitTS records the commit timestamp of the descriptor's most
	// recent update commit (zero for read-only commits). Serialization
	// order of update transactions is exactly timestamp order, which the
	// serializability tests exploit.
	lastCommitTS uint64

	stats txStats

	// Inline first segments for the read/write sets: small transactions
	// stay allocation-free because the initial slice headers point into
	// the descriptor itself; append falls back to the heap only when a
	// set outgrows its segment (and the grown backing is then reused for
	// the descriptor's lifetime).
	winline [6]wsetEntry
	oinline [6]lockRec
	uinline [6]undoEntry
	rinline [12]rsetEntry
}

// mask256 is a 256-bit mask for the read/write masks of Section 3.2.
type mask256 [4]uint64

func (m *mask256) set(i uint64)      { m[i>>6] |= 1 << (i & 63) }
func (m *mask256) has(i uint64) bool { return m[i>>6]&(1<<(i&63)) != 0 }
func (m *mask256) reset()            { *m = mask256{} }

// Begin starts a transaction attempt on this descriptor. Most callers use
// TM.Atomic instead. readOnly selects the no-read-set fast path.
func (tx *Tx) Begin(readOnly bool) { tx.begin(readOnly, false) }

// BeginSnap starts a snapshot-mode read-only attempt: the snapshot
// timestamp is the current clock value and is registered with the
// sidecar's horizon tracking until commit/rollback. Most callers use
// TM.AtomicSnap. Without Config.Snapshots it degrades to a classic
// read-only Begin.
func (tx *Tx) BeginSnap() { tx.begin(true, tx.tm.mvcc != nil) }

func (tx *Tx) begin(readOnly, snap bool) {
	tx.mustBeIdle()
	tx.tm.fz.enter()
	tx.open(readOnly, snap)
}

// mustBeIdle panics unless the descriptor may start an attempt.
func (tx *Tx) mustBeIdle() {
	if tx.inTx {
		panic("core: Begin on descriptor already in a transaction")
	}
	if tx.released {
		panic("core: Begin on released descriptor")
	}
}

// open starts an attempt once the descriptor is counted in the freezer.
func (tx *Tx) open(readOnly, snap bool) {
	tx.resetHier()
	tx.geo = tx.tm.geo.Load()
	tx.design = tx.tm.design
	tx.verShift = 1
	if tx.design == WriteThrough {
		tx.verShift = 1 + incBits
	}
	tx.yieldEvery = tx.tm.yieldN
	if tx.yieldEvery > 0 {
		tx.opBudget = tx.yieldEvery
	} else {
		tx.opBudget = opBudgetIdle
	}
	tx.waitLock = nil
	tx.inTx = true
	tx.ro = readOnly
	tx.snap = snap
	if snap {
		// Register with the sidecar BEFORE taking the snapshot timestamp.
		// A commit that sees no registered snapshot skips the sidecar
		// (no stamp, no birth, no retention), and it reads the registry
		// only after drawing its timestamp: a clock value read AFTER our
		// registration is therefore >= the timestamp of every commit that
		// skipped before seeing us, so the snapshot can never need a stamp
		// or a version that was legitimately skipped (the full argument is
		// above mvcc's Publish).
		//
		// Pin retired memory BEFORE taking it too. A snapshot reads
		// pre-images, so it can follow a pointer that a commit at ts has
		// since unlinked — to a block retired at ts. A reclaimer scan that
		// misses this pin ran before the store, so the start read after it
		// is >= ts and the snapshot never sees that pointer; one that sees
		// the pin keeps the block. Without it, a block could be reused and
		// re-initialised through a capture window (which moves no stripe)
		// under a snapshot still holding the old pointer.
		pin := tx.tm.clk.now()
		tx.tm.mvcc.Enter(tx.slot, pin)
		tx.startEpoch.Store(pin + 1)
	}
	tx.start = tx.tm.clk.now()
	tx.end = tx.start
	// startEpoch pins retired memory blocks (package reclaim): a block
	// freed at ts > start must survive until this attempt finishes. A
	// classic attempt reads only live words, all after this store: a block
	// a scan frees without seeing the store was unlinked by a commit that
	// released its locks before the attempt's first read, so the attempt
	// reads the unlink or extends past it. A snapshot's sidecar
	// registration (at a clock value <= start, conservative for trimming)
	// additionally pins retained versions where the budget allows.
	tx.startEpoch.Store(tx.start + 1)
	tx.wset = tx.wset[:0]
	tx.owned = tx.owned[:0]
	tx.undo = tx.undo[:0]
	tx.capN, tx.capWrote, tx.irrev = 0, false, false
	tx.allocs = tx.allocs[:0]
	tx.frees = tx.frees[:0]
	tx.freed.reset()
	tx.redo = tx.redo[:0]
	tx.redoTicket = nil
	if snap {
		return // no read set to size: the snapshot is consistent by construction
	}

	// Size the partitioned read set to the current h, reusing capacity.
	h := 1
	if tx.geo.hierEnabled() {
		h = int(tx.geo.hierMask + 1)
	}
	if tx.nparts != h {
		if cap(tx.rparts) < h {
			tx.rparts = make([][]rsetEntry, h)
		}
		tx.rparts = tx.rparts[:h]
		tx.nparts = h
	}
	for i := range tx.rparts {
		tx.rparts[i] = tx.rparts[i][:0]
	}
	if tx.rparts[0] == nil {
		tx.rparts[0] = tx.rinline[:0]
	}
	tx.rmask.reset()
	if h == 1 {
		// Hierarchy disabled: everything lives in partition 0 and the
		// per-access bucket bookkeeping is skipped entirely.
		tx.hactive = append(tx.hactive, 0)
	}
}

// resetHier clears the per-bucket acquisition counts of the previous
// attempt. Shared by Begin and BeginSnap — whichever runs next after an
// attempt must reset before swapping in the current geometry, or stale
// hacq counts under a new bucket mapping would poison the hierarchical
// validation fast path.
func (tx *Tx) resetHier() {
	for _, b := range tx.hactive {
		tx.hacq[b] = 0
	}
	tx.hactive = tx.hactive[:0]
}

// InTx reports whether the descriptor is inside an active transaction.
func (tx *Tx) InTx() bool { return tx.inTx }

// ReadOnly reports whether the current attempt runs in read-only mode.
func (tx *Tx) ReadOnly() bool { return tx.ro }

// Snapshot returns the current validity range [start, end] (for tests).
func (tx *Tx) Snapshot() (start, end uint64) { return tx.start, tx.end }

// abort rolls back the current attempt, classifies it, leaves the
// transaction, and unwinds to the retry loop via the abort sentinel.
func (tx *Tx) abort(kind txn.AbortKind) {
	tx.rollback(kind)
	panic(abortSignal{})
}

// rollback releases all transactional state without panicking; used both
// by abort and by commit-time validation failure.
func (tx *Tx) rollback(kind txn.AbortKind) {
	if !tx.inTx {
		panic("core: rollback outside transaction")
	}
	// Restore memory newest-first so earlier values win. Only a
	// write-through attempt or an irrevocable run logs undo records.
	for i := len(tx.undo) - 1; i >= 0; i-- {
		u := tx.undo[i]
		tx.tm.space.Store(u.addr, u.old)
	}
	if tx.design == WriteThrough {
		// Release locks with incremented incarnation so concurrent
		// readers between their two lock reads detect our interference
		// (Section 3.1's subtle write-through problem).
		for _, rec := range tx.owned {
			tx.releaseWTAborted(rec)
		}
	} else {
		// Write-back: nothing reached memory; restore lock words of
		// chain heads.
		for i := range tx.wset {
			e := &tx.wset[i]
			lw := tx.geo.loadLock(e.lockIdx)
			if isOwned(lw) && ownerSlot(lw) == tx.slot && ownerEntry(lw) == i {
				tx.geo.storeLock(e.lockIdx, e.prevLock)
			}
		}
	}
	// Release memory allocated by the failed transaction.
	for _, a := range tx.allocs {
		tx.tm.space.Free(a.addr, a.words)
	}
	tx.stats.aborts.Add(1)
	tx.stats.abortsByKind[kind].Add(1)
	tx.lastAbort = kind
	tx.flushHotCounters()
	if tx.snap {
		// Detach from the sidecar's horizon tracking: a finished snapshot
		// must not pin retained versions.
		tx.tm.mvcc.Leave(tx.slot)
		tx.snap = false
	}
	tx.inTx = false
	tx.startEpoch.Store(0)
	tx.tm.fz.exit()
}

// flushHotCounters moves the attempt's batched plain counters into the
// atomic stats (one atomic add per counter per attempt instead of one per
// event on the hot path).
func (tx *Tx) flushHotCounters() {
	if tx.dupReads != 0 {
		tx.stats.dupReadsSkipped.Add(tx.dupReads)
		tx.dupReads = 0
	}
	if tx.snapLiveReads != 0 {
		tx.stats.snapLiveReads.Add(tx.snapLiveReads)
		tx.snapLiveReads = 0
	}
	if tx.redoRecords != 0 {
		tx.stats.redoRecords.Add(tx.redoRecords)
		tx.redoRecords = 0
	}
	if tx.snapVersionReads != 0 {
		tx.stats.snapVersionReads.Add(tx.snapVersionReads)
		tx.snapVersionReads = 0
	}
}

// releaseWTAborted releases one write-through lock after an abort,
// bumping the incarnation number; on overflow it takes a fresh version
// from the global clock (paper Section 3.1).
func (tx *Tx) releaseWTAborted(rec lockRec) {
	prev := rec.prevLock
	inc := incarnationWT(prev) + 1
	if inc > incMask {
		ver := tx.freshVersion()
		if ver >= tx.tm.maxClock {
			// The fresh version itself overflowed; the next transaction
			// to start or commit performs roll-over. Clamp so the word
			// stays representable.
			ver = tx.tm.maxClock
		}
		tx.geo.storeLock(rec.lockIdx, mkVersionWT(ver, 0))
		return
	}
	tx.geo.storeLock(rec.lockIdx, mkVersionWT(versionWT(prev), inc))
}

// Load returns the word at addr within the transaction's snapshot.
//
// The fast path — unlocked stripe, stable lock word, version inside the
// snapshot — is laid out branch-first; everything else (owned locks,
// racing writers, snapshot extension) lives in loadSlow. There is no
// freeze check on this path: a freeze initiator (clock roll-over or
// Reconfigure) parks new transactions at Begin and waits for in-flight
// ones to finish naturally, so per-operation checks would only shorten
// the initiator's wait at a cost on every access.
func (tx *Tx) Load(addr uint64) uint64 {
	if !tx.inTx {
		panic("core: Load outside transaction")
	}
	// One decrement-and-test replaces the old yieldEvery-enabled branch
	// plus counter compare: with yielding disabled the budget starts
	// effectively infinite and the cold refill below is never taken.
	tx.opBudget--
	if tx.opBudget <= 0 {
		tx.loadTick()
	}
	if tx.snap {
		return tx.loadSnap(addr)
	}
	a := mem.Addr(addr)
	g := tx.geo
	li := g.lockIndex(addr)
	b := uint64(0)
	if !tx.ro {
		// Only an update attempt allocates, so only it has a capture
		// window (see memmgmt.go); a read-only load pays nothing for it.
		if addr-tx.capAddr < tx.capN {
			return tx.loadCaptured(a)
		}
		// The bucket's counter snapshot must predate the first look at
		// the lock word (see hier.go); with h == 1 this is one
		// predictable branch.
		if g.hierEnabled() {
			b = tx.hierTouch(addr)
		}
	}

	lw := g.loadLock(li)
	if !isOwned(lw) {
		val := tx.tm.space.Load(a)
		if g.loadLock(li) == lw {
			if ver := lw >> tx.verShift; ver <= tx.end {
				tx.recordRead(b, li, ver)
				return val
			}
		}
	}
	return tx.loadSlow(a, li, b)
}

// loadCaptured serves a load inside the capture window. It stays a call
// so the compiler lays the branch to it out of line as unlikely, and
// nearly every update-attempt load, which misses the window, falls
// through. With the body inlined in that path, BenchmarkListUpdateTinySTM
// ran 4–7 % slower than without a window (2 vCPUs, -cpu 1); out of line,
// within 2 %.
//
//go:noinline
func (tx *Tx) loadCaptured(a mem.Addr) uint64 { return tx.tm.space.Load(a) }

// opBudgetIdle is the Load-counter refill when yielding is disabled: large
// enough that the refill path is hit ~never, small enough to never
// underflow int across refills.
const opBudgetIdle = 1 << 30

// loadTick is the cold half of the per-load yield bookkeeping
// (Config.YieldEvery): refill the countdown and, when yielding is
// enabled, hand the processor over to simulate fine-grained interleaving.
func (tx *Tx) loadTick() {
	if tx.yieldEvery > 0 {
		tx.opBudget = tx.yieldEvery
		runtime.Gosched()
		return
	}
	tx.opBudget = opBudgetIdle
}

// recordRead appends one read-set entry to partition b, the bucket Load
// touched before reading (no-op for read-only attempts).
func (tx *Tx) recordRead(b, li, ver uint64) {
	if tx.ro {
		return
	}
	part := tx.rparts[b]
	// Duplicate-read suppression: loop-heavy transactions re-read the
	// same stripe back-to-back (list traversals revisiting links, hot
	// fields read in every iteration); a second identical (lock, version)
	// entry only inflates validation cost. Comparing the partition tail
	// is exact for adjacent repeats and never unsound: dropping a
	// duplicate leaves the entry validation still checks.
	if n := len(part); n > 0 && part[n-1].lockIdx == li && part[n-1].version == ver {
		tx.dupReads++
		return
	}
	tx.rparts[b] = append(part, rsetEntry{lockIdx: li, version: ver})
}

// loadSlow handles the uncommon read cases: a lock owned by this or
// another transaction, a lock word that changed under the read, or a
// version beyond the snapshot (triggering LSA extension).
func (tx *Tx) loadSlow(a mem.Addr, li, b uint64) uint64 {
	g := tx.geo
	var val, ver uint64
restart:
	for {
		lw := g.loadLock(li)
		if isOwned(lw) {
			if ownerSlot(lw) != tx.slot {
				// Conflict with another transaction's encounter-time
				// lock. The paper notes a transaction "can try to wait
				// for some time or abort immediately" and picks the
				// latter, as does resolveConflict; the wait comes after
				// the abort, in the retry loop.
				if tx.resolveConflict(li) {
					continue restart
				}
				tx.abort(txn.AbortReadConflict)
			}
			return tx.loadOwn(a, lw)
		}

		// Unlocked: lock — value — lock, with the whole word compared so
		// a write-through abort (incarnation bump) in between is
		// detected.
		for {
			val = tx.tm.space.Load(a)
			lw2 := g.loadLock(li)
			if lw2 == lw {
				break
			}
			if isOwned(lw2) {
				tx.abort(txn.AbortReadConflict)
			}
			lw = lw2
		}

		ver = lw >> tx.verShift
		if ver <= tx.end {
			break
		}
		// The location changed after our snapshot; try to extend (LSA),
		// which read-only transactions cannot do without a read set,
		// then re-read the value under the extended snapshot.
		if !tx.extend() {
			tx.abort(txn.AbortExtend)
		}
		continue restart
	}

	tx.recordRead(b, li, ver)
	return val
}

// loadOwn serves a read of a location whose lock this transaction owns.
func (tx *Tx) loadOwn(a mem.Addr, lw uint64) uint64 {
	if tx.design == WriteThrough {
		// Memory always holds our latest value.
		return tx.tm.space.Load(a)
	}
	// Write-back: walk the per-lock chain for our pending value; a miss
	// means the address shares the lock but was never written, so the
	// (committed) memory value is correct and stable while we hold the
	// lock.
	for i := int32(ownerEntry(lw)); i >= 0; i = tx.wset[i].next {
		if tx.wset[i].addr == a {
			return tx.wset[i].value
		}
	}
	return tx.tm.space.Load(a)
}

// Store writes the word at addr within the transaction.
func (tx *Tx) Store(addr uint64, v uint64) {
	tx.store(addr, v, false)
}

// StoreUnreached is Store for a word that no committed state reaches
// until a later Store of this transaction links it: a kvstore slot that
// its line's meta word marks free, filled before its meta bit is set. The
// word must not be one the transaction itself unlinked earlier, which was
// reachable when it began. In an irrevocable run it logs no undo entry: a
// rollback restores the linking word, which leaves this one unreached
// again, so its value does not matter. Everywhere else it is Store.
func (tx *Tx) StoreUnreached(addr uint64, v uint64) {
	if tx.inTx && tx.irrev {
		tx.capWrote = true
		tx.tm.space.Store(mem.Addr(addr), v)
		return
	}
	tx.store(addr, v, false)
}

func (tx *Tx) store(addr uint64, v uint64, lockOnly bool) {
	if !tx.inTx {
		panic("core: Store outside transaction")
	}
	if tx.ro {
		// Read-only attempts restart in update mode.
		tx.upgr = true
		tx.abort(txn.AbortUpgrade)
	}
	a := mem.Addr(addr)
	if addr-tx.capAddr < tx.capN {
		// Captured (see memmgmt.go): written in place with no undo, and a
		// Free's lockOnly pass has nothing to lock. An irrevocable run's
		// window is the whole space, so it logs what it overwrites.
		tx.capWrote = true
		if !lockOnly {
			if tx.irrev {
				tx.logUndo(a)
			}
			tx.tm.space.Store(a, v)
		}
		return
	}
	g := tx.geo
	li := g.lockIndex(addr)

	for {
		lw := g.loadLock(li)
		if isOwned(lw) {
			if ownerSlot(lw) != tx.slot {
				if tx.resolveConflict(li) {
					continue
				}
				tx.abort(txn.AbortWriteConflict)
			}
			tx.storeOwned(a, v, li, lw, lockOnly)
			return
		}
		// Check the version before acquiring: if the location was
		// updated past our snapshot, extend first (otherwise commit
		// validation would abort us anyway — detecting early is the
		// encounter-time philosophy), then restart the acquisition.
		if ver := lw >> tx.verShift; ver > tx.end {
			if !tx.extend() {
				tx.abort(txn.AbortExtend)
			}
			continue
		}
		if tx.acquire(a, v, li, lw, lockOnly) {
			return
		}
		// CAS failed: another transaction grabbed the lock meanwhile;
		// re-read and either conflict or retry (paper: "the whole
		// procedure is restarted").
	}
}

// acquire attempts to take the lock at li (currently reading lw) and
// record the write. Returns false if the CAS lost a race.
func (tx *Tx) acquire(a mem.Addr, v uint64, li uint64, lw uint64, lockOnly bool) bool {
	hier := tx.geo.hierEnabled()
	var b uint64
	if hier {
		b = tx.hierTouch(uint64(a))
	}
	if tx.design == WriteThrough {
		idx := len(tx.owned)
		if !tx.geo.casLock(li, lw, mkOwned(tx.slot, idx)) {
			return false
		}
		if hier {
			tx.hierRecordWrite(b)
		}
		tx.owned = append(tx.owned, lockRec{lockIdx: li, prevLock: lw})
		old := tx.tm.space.Load(a)
		tx.undo = append(tx.undo, undoEntry{addr: a, old: old})
		if !lockOnly {
			tx.tm.space.Store(a, v)
		}
		return true
	}
	// Write-back: the new chain head is the entry we are about to add.
	idx := len(tx.wset)
	if !tx.geo.casLock(li, lw, mkOwned(tx.slot, idx)) {
		return false
	}
	if hier {
		tx.hierRecordWrite(b)
	}
	val := v
	if lockOnly {
		val = tx.tm.space.Load(a) // keep the committed value
	}
	tx.wset = append(tx.wset, wsetEntry{
		addr: a, value: val, lockIdx: li, prevLock: lw, next: -1,
	})
	return true
}

// storeOwned handles a write to a location whose covering lock we already
// hold.
func (tx *Tx) storeOwned(a mem.Addr, v uint64, li uint64, lw uint64, lockOnly bool) {
	if tx.design == WriteThrough {
		old := tx.tm.space.Load(a)
		tx.undo = append(tx.undo, undoEntry{addr: a, old: old})
		if !lockOnly {
			tx.tm.space.Store(a, v)
		}
		return
	}
	head := int32(ownerEntry(lw))
	for i := head; i >= 0; i = tx.wset[i].next {
		if tx.wset[i].addr == a {
			if !lockOnly {
				tx.wset[i].value = v
			}
			return
		}
	}
	// New address under an already-owned lock: prepend as new chain
	// head, carrying the restore word, and repoint the lock.
	val := v
	if lockOnly {
		val = tx.tm.space.Load(a)
	}
	idx := len(tx.wset)
	tx.wset = append(tx.wset, wsetEntry{
		addr: a, value: val, lockIdx: li,
		prevLock: tx.wset[head].prevLock, next: head,
	})
	tx.geo.storeLock(li, mkOwned(tx.slot, idx))
}

// resolveConflict is the one conflict rule, for a lock at li that the
// caller found held by another transaction: the paper's "abort
// immediately". It re-reads the lock once; if the owner released it
// meanwhile it returns true and the caller restarts the access. Otherwise
// it records the lock word and the value it holds for the retry loop's
// awaitConflict and returns false: the caller aborts.
func (tx *Tx) resolveConflict(li uint64) bool {
	g := tx.geo
	lw := g.loadLock(li)
	if !isOwned(lw) {
		return true
	}
	tx.waitLock, tx.waitWord = &g.locks[li], lw
	return false
}

// awaitConflict is TinySTM's CM_DELAY, run by the retry loop after a
// failed attempt: when the attempt lost to a lock, wait until that
// lock word changes — its owner released it or handed it on — because a
// retry that starts earlier most likely runs into the same lock again, and
// each such attempt allocates, unwinds by panic and frees for nothing. The
// descriptor has rolled back: it holds no locks and has left the freeze,
// so the wait blocks neither the owner, a Reconfigure nor a roll-over. A
// word in a geometry retired meanwhile changes when its owner finishes;
// retryWaitLimit bounds the wait for an owner that holds its lock longer
// (a write-through attempt holds every lock it takes to its end). The
// schedule — spin, then nap — is the one beside retryWaitLimit.
func (tx *Tx) awaitConflict() {
	w := tx.waitLock
	if w == nil {
		return
	}
	tx.waitLock = nil
	if atomic.LoadUint64(w) != tx.waitWord {
		return
	}
	t0 := time.Now()
	for spin := 1; atomic.LoadUint64(w) == tx.waitWord; spin++ {
		if spin&15 != 0 {
			continue
		}
		if time.Since(t0) >= retryWaitLimit {
			break
		}
		if spin < retrySpins {
			runtime.Gosched() // let the owner run
		} else {
			time.Sleep(retryNap)
		}
	}
	tx.stats.retryWaits.Add(1)
	tx.stats.retryWaitNs.Add(uint64(time.Since(t0)))
}

// extend tries to grow the snapshot's validity range to the current clock
// (LSA snapshot extension): every read must still be valid. Read-only
// transactions have no read set and therefore cannot extend.
func (tx *Tx) extend() bool {
	if tx.ro {
		return false
	}
	now := tx.tm.clk.now()
	if !tx.validate() {
		return false
	}
	tx.end = now
	tx.stats.extensions.Add(1)
	return true
}

// validate checks that every read-set entry is still valid: unlocked with
// the observed version, or locked by this very transaction with the
// observed pre-acquisition version. Hierarchical buckets whose counter
// proves the absence of competing writers are skipped wholesale (the fast
// path of Section 3.2).
func (tx *Tx) validate() bool {
	g := tx.geo
	var checked, skipped uint64
	ok := true
	hier := g.hierEnabled()
scan:
	for _, bb := range tx.hactive {
		b := uint64(bb)
		part := tx.rparts[b]
		if len(part) == 0 {
			continue
		}
		if hier && g.hier[b].v.Load() == tx.hsnap[b]+uint64(tx.hacq[b]) {
			// No foreign writer touched this bucket since we recorded
			// it: skip per-entry validation.
			skipped += uint64(len(part))
			continue
		}
		for _, e := range part {
			checked++
			lw := g.loadLock(e.lockIdx)
			if isOwned(lw) {
				if ownerSlot(lw) != tx.slot {
					ok = false
					break scan
				}
				if tx.prevVersionOfOwned(lw) != e.version {
					ok = false
					break scan
				}
			} else if lw>>tx.verShift != e.version {
				ok = false
				break scan
			}
		}
	}
	tx.stats.locksValidated.Add(checked)
	tx.stats.locksSkipped.Add(skipped)
	return ok
}

// prevVersionOfOwned returns the version a lock we own carried before we
// acquired it, recovered via the entry index packed in the lock word.
func (tx *Tx) prevVersionOfOwned(lw uint64) uint64 {
	idx := ownerEntry(lw)
	if tx.design == WriteThrough {
		return versionWT(tx.owned[idx].prevLock)
	}
	return versionWB(tx.wset[idx].prevLock)
}

// isUpdate reports whether the attempt wrote anything: locks held, or a
// captured word stored to or freed.
func (tx *Tx) isUpdate() bool {
	return len(tx.wset) > 0 || len(tx.owned) > 0 || tx.capWrote
}

// Commit attempts to commit the transaction. It returns false (with the
// transaction rolled back) if validation failed; callers then retry.
func (tx *Tx) Commit() bool {
	if !tx.inTx {
		panic("core: Commit outside transaction")
	}
	if !tx.isUpdate() {
		// Read-only commit: the incrementally-validated snapshot is
		// consistent by construction; nothing to validate or publish.
		tx.lastCommitTS = 0
		tx.finishCommit()
		return true
	}

	ts, ok := tx.commitTS()
	if !ok {
		// Clock exhausted: abort, then perform roll-over at the barrier.
		tx.rollback(txn.AbortFrozen)
		tx.tm.rollOver()
		return false
	}

	// If ts == start+1, no transaction committed since our snapshot began,
	// so the read set cannot have changed (paper Section 3.2's "notable
	// exception"): timestamps are unique and dense, and the increment
	// linearizes commits.
	if ts != tx.start+1 {
		if !tx.validate() {
			tx.rollback(txn.AbortValidate)
			return false
		}
	}

	// Point of no return: publish values and release locks at version ts.
	// A versioned commit — one that sees a registered snapshot — captures
	// the superseded values during the write-back (write-back design) or
	// recovers them from the undo log (write-through), delivers them to
	// the sidecar and stamps the allocated words' births, BEFORE the locks
	// are released: per-stripe publication then follows lock order, and a
	// snapshot reader that observes the released version ts knows the
	// matching pre-image is already retained (or trimmed into the
	// horizon) — never still in flight. The decision is read once, after
	// ts was drawn, and covers births, stamps and retention alike; with no
	// snapshot registered the commit runs as if the sidecar were absent.
	// Why that leaves every snapshot exact is argued above mvcc's Publish.
	versioned := tx.tm.mvcc != nil && tx.tm.mvcc.ActiveSnapshots() > 0
	g := tx.geo
	if tx.design == WriteBack {
		if versioned {
			for i := range tx.wset {
				e := &tx.wset[i]
				e.old = tx.tm.space.Load(e.addr)
				tx.tm.space.Store(e.addr, e.value)
			}
			tx.publishVersions(ts)
		} else {
			for i := range tx.wset {
				e := &tx.wset[i]
				tx.tm.space.Store(e.addr, e.value)
			}
		}
		// Redo records go out while the write locks are still held, like
		// the MVCC pre-images above: per-key hook order == commit order.
		tx.publishRedo(ts)
		newLW := mkVersionWB(ts)
		for i := range tx.wset {
			e := &tx.wset[i]
			lw := g.loadLock(e.lockIdx)
			if isOwned(lw) && ownerSlot(lw) == tx.slot && ownerEntry(lw) == i {
				g.storeLock(e.lockIdx, newLW)
			}
		}
	} else {
		if versioned {
			tx.publishVersions(ts)
		}
		tx.publishRedo(ts)
		newLW := mkVersionWT(ts, 0)
		for _, rec := range tx.owned {
			g.storeLock(rec.lockIdx, newLW)
		}
	}

	// Apply deferred frees now that the transaction is durable. Blocks
	// are retired rather than freed outright: doomed transactions that
	// started before ts may still dereference them (see package reclaim).
	for _, f := range tx.frees {
		tx.tm.pool.Retire(uint64(f.addr), f.words, ts)
	}
	tx.lastCommitTS = ts
	tx.finishCommit()
	if len(tx.frees) > 0 {
		tx.tm.maybeDrainLimbo()
	}
	return true
}

func (tx *Tx) finishCommit() {
	tx.stats.commits.Add(1)
	tx.flushHotCounters()
	if tx.snap {
		tx.tm.mvcc.Leave(tx.slot)
		tx.snap = false
	}
	tx.inTx = false
	tx.startEpoch.Store(0)
	tx.tm.fz.exit()
}

// Retry aborts the current attempt explicitly; TM.Atomic will re-run the
// block. Useful for optimistic condition waiting. An irrevocable run
// cannot retry: it would find the frozen world unchanged.
func (tx *Tx) Retry() {
	if !tx.inTx {
		panic("core: Retry outside transaction")
	}
	if tx.irrev {
		panic("core: Retry in an irrevocable transaction")
	}
	tx.abort(txn.AbortExplicit)
}

// Slot returns the descriptor's slot index (diagnostics).
func (tx *Tx) Slot() int { return tx.slot }

// LastCommitTS returns the commit timestamp of the descriptor's most
// recent update commit (zero if it was read-only). Update transactions
// serialize in timestamp order.
func (tx *Tx) LastCommitTS() uint64 { return tx.lastCommitTS }

// TxStats returns this descriptor's counters as a snapshot. The counters
// belong to the slot, not to one holder: a descriptor reissued by NewTx
// after Release continues its slot's totals.
func (tx *Tx) TxStats() txn.Stats {
	var s txn.Stats
	tx.stats.snapshotInto(&s)
	return s
}

package core

// Snapshot execution mode: wait-free read-only transactions over the
// commit-ordered MVCC sidecar (Config.Snapshots, package mvcc).
//
// A snapshot transaction picks its start timestamp S once at begin and
// never moves it: every Load returns the value that was committed at S.
// The fast path is the live word — when the covering stripe's version is
// still <= S, the current memory value IS the value at S. Only when a
// writer has moved the stripe past S does the read fall back to the
// sidecar, which retains the superseded values together with their
// validity intervals. There is no read set, no snapshot extension and no
// commit-time validation: the snapshot is consistent by construction, so
// the O(reads) validation work of a classic read-only transaction drops
// to zero and concurrent writers can never abort it. The only abort a
// snapshot transaction can suffer is AbortSnapshotTooOld — its snapshot
// fell behind the sidecar's trim horizon, the sidecar held no version for
// a record past it, or it waited out its spin budget behind an in-flight
// writer (SnapRestart counts each) — and the retry restarts it on a fresh
// snapshot.
//
// Update commits pay for this only while a snapshot is registered. Such a
// commit is versioned: it captures the value each written word is about
// to supersede, publishes those pre-images into the sidecar and stamps
// its births, all BEFORE releasing its locks (see mvcc.Publish for why
// the ordering matters), at commit timestamp ts. A commit that sees no
// registered snapshot, read once after it drew ts, skips the sidecar
// altogether, so a workload that never scans keeps it cold; the argument
// that a later snapshot still reads exact values sits above mvcc's
// Publish. The per-shard version budget (Config.SnapshotBudget, fixed
// when the TM is built) bounds the memory retained for running snapshots.

import (
	"cmp"
	"runtime"
	"slices"
	"sort"
	"time"

	"tinystm/internal/mem"
	"tinystm/internal/mvcc"
	"tinystm/internal/txn"
)

// snapSpinBudget bounds how many times a snapshot read re-examines a
// stripe owned by an in-flight writer before giving up on this snapshot.
// Both designs hold a stripe's lock from the write that took it until
// the writer commits or aborts, so a long writer, or one the scheduler
// parks mid-transaction, can exhaust the budget — the retry then restarts
// on a fresh snapshot past the writer.
const snapSpinBudget = 512

// awaitConflict's schedule for the lock that beat an attempt: retrySpins
// looks, with a yield every 16 as loadSnap does, then a retryNap sleep
// between looks, because an owner that holds its lock that long runs a big
// transaction and a waiter that keeps spinning takes a core from it. After
// retryWaitLimit the retry starts anyway. The limit is a time, not a spin
// count: a yield returns at once when nothing else is runnable, so a spin
// budget would run out long before a 1 024-put batch releases its locks.
const (
	retrySpins     = 1 << 10
	retryNap       = 20 * time.Microsecond
	retryWaitLimit = 100 * time.Millisecond
)

// SnapRestart names why a snapshot attempt gave up: the cause behind one
// AbortSnapshotTooOld, counted where loadSnap raises it.
type SnapRestart int

const (
	// RestartTrimmed: the sidecar answered ReadTooOld, its shard had
	// trimmed past the snapshot.
	RestartTrimmed SnapRestart = iota
	// RestartMiss: the sidecar answered ReadMiss, it held no version for
	// a record past the snapshot.
	RestartMiss
	// RestartHeld: a writer held the stripe through snapSpinBudget looks.
	RestartHeld
	// NSnapRestarts is the number of causes.
	NSnapRestarts
)

// String names the cause as the metrics label does.
func (c SnapRestart) String() string {
	return [NSnapRestarts]string{"trimmed", "miss", "held"}[c]
}

// SnapshotsEnabled reports whether the MVCC sidecar is attached.
func (tm *TM) SnapshotsEnabled() bool { return tm.mvcc != nil }

// VersionBudget returns the sidecar's per-shard version budget (zero when
// snapshots are disabled).
func (tm *TM) VersionBudget() int {
	if tm.mvcc == nil {
		return 0
	}
	return tm.mvcc.Budget()
}

// SnapshotCounts returns the aggregate snapshot counters: too-old aborts,
// versions published and versions trimmed. O(1) and lock-free.
func (tm *TM) SnapshotCounts() (tooOld, published, trimmed uint64) {
	for _, n := range tm.SnapshotRestarts() {
		tooOld += n
	}
	if tm.mvcc != nil {
		published, trimmed = tm.mvcc.Counts()
	}
	return tooOld, published, trimmed
}

// SnapshotRestarts returns the too-old aborts split by cause, indexed by
// SnapRestart; they sum to SnapshotCounts' tooOld.
func (tm *TM) SnapshotRestarts() (n [NSnapRestarts]uint64) {
	for c := range n {
		n[c] = tm.snapRestarts[c].Load()
	}
	return n
}

// RetainedVersions reports how many versions the sidecar currently holds
// (diagnostics, leak tests); zero when snapshots are disabled.
func (tm *TM) RetainedVersions() int {
	if tm.mvcc == nil {
		return 0
	}
	return tm.mvcc.Retained()
}

// ActiveSnapshots reports how many snapshot transactions are registered
// with the sidecar's horizon tracking (diagnostics, leak tests).
func (tm *TM) ActiveSnapshots() int {
	if tm.mvcc == nil {
		return 0
	}
	return tm.mvcc.ActiveSnapshots()
}

// AtomicSnap runs fn as a snapshot-mode read-only transaction, retrying
// on a fresh snapshot whenever the current one falls off the retained
// horizon. If fn writes, the block transparently restarts as a regular
// update transaction (like AtomicRO's upgrade). Without Config.Snapshots
// it falls back to AtomicRO.
func (tm *TM) AtomicSnap(tx *Tx, fn func(*Tx)) {
	tm.atomic(tx, fn, true, tm.mvcc != nil)
}

// loadSnap serves one snapshot-mode read: live word when the stripe has
// not moved past the snapshot, sidecar version otherwise.
func (tx *Tx) loadSnap(addr uint64) uint64 {
	a := mem.Addr(addr)
	g := tx.geo
	li := g.lockIndex(addr)
	snap := tx.start
	for spin := 0; ; spin++ {
		lw := g.loadLock(li)
		if !isOwned(lw) {
			if lw>>tx.verShift <= snap {
				// The live value became current at or before the snapshot
				// and has not been superseded: it IS the value at snap.
				// The re-read detects a racing acquisition/release between
				// the lock read and the value read.
				val := tx.tm.space.Load(a)
				if g.loadLock(li) == lw {
					tx.snapLiveReads++
					return val
				}
				continue
			}
			// The stripe moved past the snapshot while unlocked:
			// publishers deliver pre-images before releasing their locks,
			// so everything there is to know is already in the sidecar —
			// a miss here is persistent and waiting cannot help.
			val, res := tx.tm.mvcc.Read(li, addr, snap)
			switch res {
			case mvcc.ReadHit:
				tx.snapVersionReads++
				return val
			case mvcc.ReadLiveValid:
				// Only a NEIGHBOR under the stripe moved past the
				// snapshot; this address's live value provably predates
				// it. Serve it, re-validating against the original lock
				// word (an intervening commit restarts the loop).
				v := tx.tm.space.Load(a)
				if g.loadLock(li) == lw {
					tx.snapLiveReads++
					return v
				}
				continue
			case mvcc.ReadTooOld:
				tx.restartSnap(RestartTrimmed)
			default:
				// A miss: the value at snap predates the stripe's
				// retained history. Restart on a fresh snapshot.
				tx.restartSnap(RestartMiss)
			}
		}
		// An in-flight writer owns the stripe. If it writes this very
		// address, its pre-image appears BEFORE it releases (it is past
		// the point of no return once it publishes), so poll the sidecar
		// occasionally; otherwise just wait for the release.
		if spin&15 == 0 {
			if val, res := tx.tm.mvcc.Read(li, addr, snap); res == mvcc.ReadHit {
				tx.snapVersionReads++
				return val
			} else if res == mvcc.ReadTooOld {
				tx.restartSnap(RestartTrimmed)
			}
		}
		if spin >= snapSpinBudget {
			// A writer can hold its encounter-time locks for its whole
			// execution; give up on this snapshot rather than wait
			// unboundedly.
			tx.restartSnap(RestartHeld)
		}
		if spin&15 == 15 {
			// Let the lock owner run; essential on few-core hosts.
			runtime.Gosched()
		}
	}
}

// restartSnap counts cause and aborts the snapshot attempt too-old.
func (tx *Tx) restartSnap(cause SnapRestart) {
	tx.tm.snapRestarts[cause].Add(1)
	tx.abort(txn.AbortSnapshotTooOld)
}

// publishVersions is the versioned half of a commit: it delivers the
// pre-images this commit supersedes to the sidecar at commit timestamp
// ts. Called only when the commit saw a registered snapshot, while the
// write locks are still held (see mvcc.Publish for the contract). Words
// this very transaction allocated carry no pre-image (the prior bits are
// allocator garbage and no snapshot can reach them before this commit
// links them); their birth at ts is stamped straight into the sidecar's
// written array (mvcc.Store.Born) so it learns their exact validity start.
//
// What a commit pays here is linear in what it touched: one stamp per
// word it allocated, then one pre-image per pre-existing word it wrote.
// Telling the two apart is a binary search over the allocations merged
// into address-ordered spans (isFreshAlloc), and a write-through stripe's
// pre-acquisition version is one lookup through its owned lock word.
// Neither may scan the allocation or owned-lock lists per written word:
// with every lock held, that makes a 1 024-put batch quadratic.
func (tx *Tx) publishVersions(ts uint64) {
	tx.stats.versionedCommits.Add(1)
	// EVERY word of every block this commit allocated is born at ts —
	// including words the transaction never stored to (Alloc zeroes them;
	// a grown hash directory's empty bucket heads are read by scans but
	// never written) and words it stored to through the capture window,
	// whose stripes no lock moved. Without the birth, alias pressure on
	// such a word's stripe would leave snapshot readers with an
	// unresolvable miss.
	for _, a := range tx.allocs {
		tx.tm.mvcc.Born(ts, uint64(a.addr), a.words)
	}
	pub := tx.pub[:0]
	tx.mergeAllocSpans()
	if tx.design == WriteBack {
		for i := range tx.wset {
			e := &tx.wset[i]
			if tx.isFreshAlloc(uint64(e.addr)) {
				continue
			}
			pub = append(pub, mvcc.Version{
				Stripe: e.lockIdx,
				Addr:   uint64(e.addr),
				Val:    e.old,
				From:   versionWB(e.prevLock),
			})
		}
	} else {
		// Write-through: the undo log holds the superseded values — the
		// FIRST record per address (later ones captured this transaction's
		// own intermediate writes). Fresh words are skipped before the
		// dedupe, so only pre-existing addresses enter the scratch set,
		// which is reused across commits and emptied in O(1) (this runs
		// while every write lock is still held; allocating or clearing a
		// big table here would stretch the critical section). Every
		// stripe in the undo log stays owned by this transaction until
		// after publication, and its lock word indexes its one owned
		// record: that record holds the pre-acquisition version.
		tx.pubSeen.reset()
		for i := range tx.undo {
			u := &tx.undo[i]
			if tx.isFreshAlloc(uint64(u.addr)) {
				continue
			}
			if !tx.pubSeen.add(u.addr) {
				continue
			}
			li := tx.geo.lockIndex(uint64(u.addr))
			pub = append(pub, mvcc.Version{
				Stripe: li,
				Addr:   uint64(u.addr),
				Val:    u.old,
				From:   tx.prevVersionOfOwned(tx.geo.loadLock(li)),
			})
		}
	}
	tx.pub = pub
	tx.tm.mvcc.Publish(ts, pub)
}

// mergeAllocSpans rebuilds tx.allocSpans, the index isFreshAlloc searches:
// the attempt's allocations sorted by address, abutting blocks merged.
// tx.allocs itself keeps allocation order — rollback frees each block as
// it was allocated. Bump allocation hands a batch's nodes out back to
// back, so a 1 024-node commit is one or two spans; the scratch is reused
// like tx.pub, so a warm descriptor allocates nothing here.
func (tx *Tx) mergeAllocSpans() {
	spans := append(tx.allocSpans[:0], tx.allocs...)
	slices.SortFunc(spans, func(a, b allocRec) int { return cmp.Compare(a.addr, b.addr) })
	n := 0
	for _, s := range spans {
		if n > 0 && spans[n-1].addr+mem.Addr(spans[n-1].words) == s.addr {
			spans[n-1].words += s.words
			continue
		}
		spans[n] = s
		n++
	}
	tx.allocSpans = spans[:n]
}

// isFreshAlloc reports whether addr lies inside a block this transaction
// allocated: O(log spans) over the spans mergeAllocSpans built, so the
// pre-image pass stays linear in the write set.
func (tx *Tx) isFreshAlloc(addr uint64) bool {
	spans := tx.allocSpans
	i := sort.Search(len(spans), func(i int) bool { return uint64(spans[i].addr) > addr })
	return i > 0 && addr < uint64(spans[i-1].addr)+uint64(spans[i-1].words)
}

package tl2

import (
	"runtime"
	"sync/atomic"

	"tinystm/internal/mem"
	"tinystm/internal/txn"
)

type abortSignal struct{}

type wsetEntry struct {
	addr  mem.Addr
	value uint64
}

type lockRec struct {
	lockIdx  uint64
	prevLock uint64
}

// Tx is a TL2 transaction descriptor, affine to one goroutine.
type Tx struct {
	tm   *TM
	slot int
	inTx bool
	ro   bool
	upgr bool

	rv uint64 // read version (snapshot)

	yieldEvery int
	opCount    int

	rset  []uint64 // lock indices read (validated at commit)
	wset  []wsetEntry
	bloom uint64 // write-set membership filter (one word, one hash)

	acquired []lockRec // commit-time locks held, for release on failure

	allocs []allocRec
	frees  []allocRec

	startEpoch atomic.Uint64

	// lastCommitTS records the write version of the most recent update
	// commit (zero for read-only commits).
	lastCommitTS uint64

	commits        atomic.Uint64
	aborts         atomic.Uint64
	abortsByKind   [txn.NAbortKinds]atomic.Uint64
	locksValidated atomic.Uint64
}

type allocRec struct {
	addr  mem.Addr
	words int
}

// bloomBit maps an address to its filter bit; a 64-bit single-hash Bloom
// filter mirrors the reference TL2's write-set lookaside: effective for
// small write sets, degrading to full scans for large ones (the behaviour
// the paper contrasts with TinySTM's per-lock chains).
func bloomBit(a mem.Addr) uint64 {
	return 1 << ((uint64(a) * 0x9e3779b97f4a7c15) >> 58)
}

// Begin starts an attempt. Exported for tests that craft interleavings.
func (tx *Tx) Begin(readOnly bool) {
	if tx.inTx {
		panic("tl2: Begin on descriptor already in a transaction")
	}
	tx.inTx = true
	tx.ro = readOnly
	tx.yieldEvery = tx.tm.yieldN
	tx.rv = tx.tm.clock.Load()
	tx.startEpoch.Store(tx.rv + 1)
	tx.rset = tx.rset[:0]
	tx.wset = tx.wset[:0]
	tx.bloom = 0
	tx.acquired = tx.acquired[:0]
	tx.allocs = tx.allocs[:0]
	tx.frees = tx.frees[:0]
}

func (tx *Tx) abort(kind txn.AbortKind) {
	tx.rollback(kind)
	panic(abortSignal{})
}

func (tx *Tx) rollback(kind txn.AbortKind) {
	for _, rec := range tx.acquired {
		tx.tm.storeLock(rec.lockIdx, rec.prevLock)
	}
	for _, a := range tx.allocs {
		tx.tm.space.Free(a.addr, a.words)
	}
	tx.aborts.Add(1)
	tx.abortsByKind[kind].Add(1)
	tx.inTx = false
	tx.startEpoch.Store(0)
}

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
		if tx.inTx {
			tx.rollback(txn.AbortExplicit)
		}
		panic(r)
	}()
	fn(tx)
	return true
}

// Load returns the word at addr under TL2's read rule: speculative reads
// must observe an unlocked location with version <= rv; otherwise the
// transaction aborts (TL2 has no snapshot extension).
func (tx *Tx) Load(addr uint64) uint64 {
	if !tx.inTx {
		panic("tl2: Load outside transaction")
	}
	if tx.yieldEvery != 0 {
		tx.opCount++
		if tx.opCount >= tx.yieldEvery {
			tx.opCount = 0
			runtime.Gosched()
		}
	}
	a := mem.Addr(addr)
	// Read-after-write: Bloom filter, then newest-first scan.
	if tx.bloom&bloomBit(a) != 0 {
		for i := len(tx.wset) - 1; i >= 0; i-- {
			if tx.wset[i].addr == a {
				return tx.wset[i].value
			}
		}
	}
	li := tx.tm.lockIndex(addr)
	lw := tx.tm.loadLock(li)
	var val uint64
	for {
		if isOwned(lw) {
			// Speculative read hit a committing writer's lock: abort at
			// once, as the reference TL2 does, unless a re-read finds it
			// released.
			if lw = tx.tm.loadLock(li); isOwned(lw) {
				tx.abort(txn.AbortReadConflict)
			}
			continue
		}
		val = tx.tm.space.Load(a)
		lw2 := tx.tm.loadLock(li)
		if lw2 == lw {
			break
		}
		lw = lw2
	}
	if versionOf(lw) > tx.rv {
		tx.abort(txn.AbortExtend)
	}
	if !tx.ro {
		tx.rset = append(tx.rset, li)
	}
	return val
}

// Store buffers the write; locks are acquired at commit time.
func (tx *Tx) Store(addr uint64, v uint64) {
	if !tx.inTx {
		panic("tl2: Store outside transaction")
	}
	if tx.ro {
		tx.upgr = true
		tx.abort(txn.AbortUpgrade)
	}
	a := mem.Addr(addr)
	if tx.bloom&bloomBit(a) != 0 {
		for i := len(tx.wset) - 1; i >= 0; i-- {
			if tx.wset[i].addr == a {
				tx.wset[i].value = v
				return
			}
		}
	}
	tx.bloom |= bloomBit(a)
	tx.wset = append(tx.wset, wsetEntry{addr: a, value: v})
}

// Alloc reserves n fresh words, released if the transaction aborts.
func (tx *Tx) Alloc(n int) uint64 {
	if !tx.inTx {
		panic("tl2: Alloc outside transaction")
	}
	if tx.ro {
		tx.upgr = true
		tx.abort(txn.AbortUpgrade)
	}
	a := tx.tm.space.Alloc(n)
	if a == mem.Nil {
		panic(txn.ErrSpaceExhausted)
	}
	tx.allocs = append(tx.allocs, allocRec{addr: a, words: n})
	return uint64(a)
}

// Free schedules the block for release at commit. Each covered word is
// re-written with its current value so commit-time locking covers the
// free (a free is semantically an update).
func (tx *Tx) Free(addr uint64, n int) {
	if !tx.inTx {
		panic("tl2: Free outside transaction")
	}
	if tx.ro {
		tx.upgr = true
		tx.abort(txn.AbortUpgrade)
	}
	for w := uint64(0); w < uint64(n); w++ {
		v := tx.Load(addr + w)
		tx.Store(addr+w, v)
	}
	tx.frees = append(tx.frees, allocRec{addr: mem.Addr(addr), words: n})
}

// Commit runs TL2's commit protocol: acquire write locks, fetch the write
// version, validate the read set (unless wv == rv+1), publish, release.
// Returns false with the transaction rolled back if it must retry.
func (tx *Tx) Commit() bool {
	if !tx.inTx {
		panic("tl2: Commit outside transaction")
	}
	if len(tx.wset) == 0 {
		tx.lastCommitTS = 0
		tx.commits.Add(1)
		tx.inTx = false
		tx.startEpoch.Store(0)
		return true
	}

	// Phase 1: lock the write set. A stripe another transaction holds
	// aborts the commit at once (the reference implementation's choice),
	// unless a re-read finds it released: waiting here would happen while
	// holding locks.
	for _, e := range tx.wset {
		li := tx.tm.lockIndex(uint64(e.addr))
		for {
			lw := tx.tm.loadLock(li)
			if isOwned(lw) {
				if ownerSlot(lw) == tx.slot {
					break // stripe already locked by an earlier entry
				}
				if !isOwned(tx.tm.loadLock(li)) {
					continue
				}
				tx.rollback(txn.AbortWriteConflict)
				return false
			}
			if tx.tm.casLock(li, lw, mkOwned(tx.slot, len(tx.acquired))) {
				tx.acquired = append(tx.acquired, lockRec{lockIdx: li, prevLock: lw})
				break
			}
			// CAS lost a race: re-read the lock word and re-decide.
		}
	}

	// Phase 2: write version.
	wv := tx.tm.clock.Add(1)
	if wv >= maxClock() {
		panic("tl2: global version clock exhausted")
	}

	// Phase 3: read-set validation (skipped when nothing committed in
	// between, mirroring TL2's rv+1 special case).
	if wv != tx.rv+1 {
		n := uint64(0)
		for _, li := range tx.rset {
			n++
			lw := tx.tm.loadLock(li)
			if isOwned(lw) {
				if ownerSlot(lw) != tx.slot {
					tx.locksValidated.Add(n)
					tx.rollback(txn.AbortValidate)
					return false
				}
				// Self-locked: the stripe's pre-acquisition version
				// must still be within the snapshot, otherwise our
				// earlier read was stale (lost-update hazard).
				if versionOf(tx.acquired[ownerEntry(lw)].prevLock) > tx.rv {
					tx.locksValidated.Add(n)
					tx.rollback(txn.AbortValidate)
					return false
				}
				continue
			}
			if versionOf(lw) > tx.rv {
				tx.locksValidated.Add(n)
				tx.rollback(txn.AbortValidate)
				return false
			}
		}
		tx.locksValidated.Add(n)
	}

	// Phase 4: publish values, then release locks at wv.
	for _, e := range tx.wset {
		tx.tm.space.Store(e.addr, e.value)
	}
	newLW := mkVersion(wv)
	for _, rec := range tx.acquired {
		tx.tm.storeLock(rec.lockIdx, newLW)
	}

	for _, f := range tx.frees {
		tx.tm.pool.Retire(uint64(f.addr), f.words, wv)
	}
	tx.lastCommitTS = wv
	tx.commits.Add(1)
	tx.inTx = false
	tx.startEpoch.Store(0)
	if len(tx.frees) > 0 {
		tx.tm.maybeDrainLimbo()
	}
	return true
}

// Retry aborts the attempt explicitly; Atomic re-runs the block.
func (tx *Tx) Retry() {
	if !tx.inTx {
		panic("tl2: Retry outside transaction")
	}
	tx.abort(txn.AbortExplicit)
}

// LastCommitTS returns the write version of the descriptor's most recent
// update commit (zero if it was read-only). Update transactions serialize
// in write-version order.
func (tx *Tx) LastCommitTS() uint64 { return tx.lastCommitTS }

// TxStats returns this descriptor's counters.
func (tx *Tx) TxStats() txn.Stats {
	var s txn.Stats
	s.Commits = tx.commits.Load()
	s.Aborts = tx.aborts.Load()
	for i := range tx.abortsByKind {
		s.AbortsByKind[i] = tx.abortsByKind[i].Load()
	}
	s.LocksValidated = tx.locksValidated.Load()
	return s
}

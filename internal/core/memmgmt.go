package core

import (
	"tinystm/internal/mem"
	"tinystm/internal/txn"
)

// ErrSpaceExhausted is the panic value of a transactional Alloc that found
// the arena full (the shared txn sentinel; see txn.ErrSpaceExhausted).
// Servers that keep running when the store fills — cmd/stmkvd returns 507
// — match on it and re-panic on anything else.
var ErrSpaceExhausted = txn.ErrSpaceExhausted

// Transactional memory management (paper Section 3.1, "Memory
// Management"): allocations made by an aborting transaction are disposed
// of automatically, and freed memory is not disposed of until commit. A
// free acquires all covering locks first, because a free is semantically
// equivalent to an update.
//
// Captured memory (Dragojević, Ni and Adl-Tabatabai, SPAA 2009): a block
// the running attempt allocated is unreachable by every other transaction
// until the attempt commits, so its words need no lock, no read-set or
// write-set entry and no undo record. The attempt's most recent
// allocation is its capture window (Tx.capAddr, Tx.capN): Load and Store
// serve a word inside it straight from the space, and Free of it takes no
// lock. One block, not every block of the attempt: the test is one
// subtract and compare per access, and it covers the idiom that matters,
// initialising what was just allocated (a kvstore or intset node). Older
// blocks of the attempt take the ordinary path.
//
// Why skipping the STM there is sound, obligation by obligation:
//
//   - Publication. Another transaction reaches the block only through a
//     pointer this commit stores with its lock held (or, for a block kept
//     in a Go variable such as a kvstore Map's headers, only after Commit
//     returns, at a start >= ts). A classic reader that started before ts
//     finds that link's stripe at version ts, past its snapshot, so it
//     extends (validating everything it read) or aborts before it can
//     follow the pointer; a snapshot reader below ts gets the link's
//     pre-image, which does not lead to the block. Every captured store
//     was made before the link's lock was released, so a reader that
//     follows the pointer reads the final words whatever their own
//     stripes say.
//   - Reuse. A recycled block may have been reachable before it was
//     freed. reclaim hands a retired block back only once every active
//     attempt started at or after the commit that freed it
//     (maybeDrainLimbo); snapshot attempts count through startEpoch,
//     pinned before their snapshot is taken (see begin). Such an attempt
//     reads a state in which the block is already unlinked, so no running
//     attempt holds a pointer into it, and the stripe bump the ordinary
//     path would give its words warns nobody. Blocks rollback frees go
//     back to the space at once, but they were never reachable: a
//     write-back attempt never wrote its link, and a write-through reader
//     never accepts a word read under a foreign lock.
//   - Write-through without undo. A captured word is written in place in
//     both designs, with no undo record: abort frees the block, and the
//     next Alloc of those words zeroes them. In write-back this is sound
//     because a block leaves the window at the next Alloc and never
//     re-enters it: a word written through the write set is never
//     written or read in place afterwards, and isFreshAlloc keeps every
//     fresh block out of the pre-images at commit.
//   - MVCC. Births are still published when the commit is versioned:
//     publishVersions stamps the commit's timestamp on every word of
//     every block the attempt allocated (mvcc.Store.Born) before the
//     locks are released, so a snapshot at or after ts reads a born word
//     live however far aliasing writes have moved its stripe. An
//     unversioned commit saw no snapshot after drawing ts, so every
//     snapshot that can reach its blocks starts at or after ts and reads
//     their stale records as live-valid ("a reborn block" above
//     mvcc.Store.Publish). An attempt that stored to a captured word is an
//     update (Tx.capWrote) either way, even with no lock held: it needs
//     the timestamp; one that only allocated stays read-only.
//   - Free. Freeing the window block in the attempt that allocated it
//     locks nothing, marks the attempt an update, and retires the block
//     at the commit's timestamp like any other free; on abort it is
//     released with the attempt's other allocations.

// Alloc reserves n fresh contiguous words and makes them the attempt's
// capture window. If the transaction aborts the words are returned to the
// space. The words read as zero.
func (tx *Tx) Alloc(n int) uint64 {
	if !tx.inTx {
		panic("core: Alloc outside transaction")
	}
	if tx.ro {
		tx.upgr = true
		tx.abort(txn.AbortUpgrade)
	}
	a := tx.tm.space.Alloc(n)
	if a == mem.Nil {
		panic(ErrSpaceExhausted)
	}
	tx.allocs = append(tx.allocs, allocRec{addr: a, words: n})
	if !tx.irrev {
		// An irrevocable run keeps its window on the whole space.
		tx.capAddr, tx.capN = uint64(a), uint64(n)
	}
	return uint64(a)
}

// Free schedules the n-word block at addr for release at commit time,
// after acquiring every lock covering it.
func (tx *Tx) Free(addr uint64, n int) {
	if !tx.inTx {
		panic("core: Free outside transaction")
	}
	if tx.ro {
		tx.upgr = true
		tx.abort(txn.AbortUpgrade)
	}
	// A duplicate free inside one transaction would retire the block
	// twice and corrupt the allocator. A batch of deletes frees one node
	// per key, so the check is a set lookup, not a scan of the frees.
	if !tx.freed.add(mem.Addr(addr)) {
		panic("core: double Free of the same block in one transaction")
	}
	// Lock each word as if updating it (value unchanged). Contiguous
	// words often share a stripe, in which case the per-word call finds
	// the lock already owned and is cheap; a word of the capture window
	// needs no lock at all.
	for w := uint64(0); w < uint64(n); w++ {
		tx.store(addr+w, 0, true)
	}
	tx.frees = append(tx.frees, allocRec{addr: mem.Addr(addr), words: n})
}

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

// Alloc reserves n fresh contiguous words. If the transaction aborts the
// words are returned to the space. The words read as zero.
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
	// the lock already owned and is cheap.
	for w := uint64(0); w < uint64(n); w++ {
		tx.store(addr+w, 0, true)
	}
	tx.frees = append(tx.frees, allocRec{addr: mem.Addr(addr), words: n})
}

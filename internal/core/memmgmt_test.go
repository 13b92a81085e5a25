package core

import (
	"testing"

	"tinystm/internal/mem"
	"tinystm/internal/txn"
)

// drainForTest flushes the reclamation limbo at a quiescence point.
func drainForTest(tm *TM) {
	tm.fz.freeze()
	for _, b := range tm.pool.DrainAll() {
		tm.space.Free(mem.Addr(b.Addr), b.Words)
	}
	tm.fz.unfreeze()
}

func TestAbortReleasesAllocations(t *testing.T) {
	bothDesigns(t, func(t *testing.T, d Design) {
		tm, sp := newTestTM(t, d, nil)
		tx := tm.NewTx()
		before := sp.LiveWords()
		tx.Begin(false)
		if !attempt(func() {
			a := tx.Alloc(8)
			tx.Store(a, 1)
		}) {
			t.Fatal("unexpected abort")
		}
		tx.rollback(txn.AbortExplicit)
		if got := sp.LiveWords(); got != before {
			t.Errorf("live words after abort = %d, want %d", got, before)
		}
	})
}

func TestCommitKeepsAllocations(t *testing.T) {
	tm, sp := newTestTM(t, WriteBack, nil)
	tx := tm.NewTx()
	before := sp.LiveWords()
	tm.Atomic(tx, func(tx *Tx) { _ = tx.Alloc(8) })
	if got := sp.LiveWords(); got != before+8 {
		t.Errorf("live words = %d, want %d", got, before+8)
	}
}

func TestFreeDeferredToCommit(t *testing.T) {
	bothDesigns(t, func(t *testing.T, d Design) {
		tm, sp := newTestTM(t, d, nil)
		tx := tm.NewTx()
		var a uint64
		tm.Atomic(tx, func(tx *Tx) { a = tx.Alloc(4) })
		live := sp.LiveWords()

		// Freeing inside an aborted transaction must not release.
		tx.Begin(false)
		if !attempt(func() { tx.Free(a, 4) }) {
			t.Fatal("unexpected abort")
		}
		tx.rollback(txn.AbortExplicit)
		if got := sp.LiveWords(); got != live {
			t.Errorf("aborted free released memory: %d -> %d", live, got)
		}

		// Freeing inside a committed transaction retires the block; it
		// leaves LiveWords once the limbo drains.
		tm.Atomic(tx, func(tx *Tx) { tx.Free(a, 4) })
		drainForTest(tm)
		if got := sp.LiveWords(); got != live-4 {
			t.Errorf("live words after committed free = %d, want %d", got, live-4)
		}
	})
}

// TestManyFreesThenDuplicatePanics pins Free's duplicate check at batch
// scale: one transaction frees 4 096 blocks and commits, and in the next a
// repeat of the first block as the 4 097th Free still panics. The second
// transaction frees the same addresses again (the allocator hands the
// reclaimed blocks back), so it also shows one attempt's frees do not
// leak into the next attempt's check.
func TestManyFreesThenDuplicatePanics(t *testing.T) {
	const n = 4096
	bothDesigns(t, func(t *testing.T, d Design) {
		tm, sp := newTestTM(t, d, nil)
		tx := tm.NewTx()
		alloc := func() []uint64 {
			blocks := make([]uint64, n)
			tm.Atomic(tx, func(tx *Tx) {
				for i := range blocks {
					blocks[i] = tx.Alloc(2)
				}
			})
			return blocks
		}
		live := sp.LiveWords()
		blocks := alloc()
		tm.Atomic(tx, func(tx *Tx) {
			for _, a := range blocks {
				tx.Free(a, 2)
			}
		})
		drainForTest(tm)
		if got := sp.LiveWords(); got != live {
			t.Fatalf("live words after freeing %d blocks = %d, want %d", n, got, live)
		}

		blocks = alloc()
		tx.Begin(false)
		defer tx.rollback(txn.AbortExplicit)
		for _, a := range blocks {
			tx.Free(a, 2)
		}
		defer func() {
			if recover() == nil {
				t.Error("duplicate Free after 4 096 distinct ones did not panic")
			}
		}()
		tx.Free(blocks[0], 2)
	})
}

func TestFreeConflictsWithConcurrentReader(t *testing.T) {
	// Free must acquire the covering locks: a reader that has the block
	// in its read set must fail validation afterwards.
	bothDesigns(t, func(t *testing.T, d Design) {
		tm, _ := newTestTM(t, d, nil)
		t1, t2 := tm.NewTx(), tm.NewTx()
		var a, b uint64
		tm.Atomic(t1, func(tx *Tx) {
			a = tx.Alloc(2)
			b = tx.Alloc(1)
			tx.Store(a, 7)
		})

		t1.Begin(false)
		if !attempt(func() {
			_ = t1.Load(a)
			t1.Store(b, 1)
		}) {
			t.Fatal("unexpected abort")
		}
		tm.Atomic(t2, func(tx *Tx) { tx.Free(a, 2) })
		if t1.Commit() {
			t.Fatal("t1 must fail validation: its read was freed")
		}
	})
}

func TestFreeWhileLockedAborts(t *testing.T) {
	bothDesigns(t, func(t *testing.T, d Design) {
		tm, _ := newTestTM(t, d, nil)
		t1, t2 := tm.NewTx(), tm.NewTx()
		var a uint64
		tm.Atomic(t1, func(tx *Tx) { a = tx.Alloc(2); tx.Store(a, 1) })

		t1.Begin(false)
		if !attempt(func() { t1.Store(a, 2) }) {
			t.Fatal("unexpected abort")
		}
		t2.Begin(false)
		if attempt(func() { t2.Free(a, 2) }) {
			t.Fatal("free of a locked block must conflict")
		}
		if !t1.Commit() {
			t.Fatal("t1 commit failed")
		}
	})
}

func TestAllocZeroesReusedMemory(t *testing.T) {
	tm, _ := newTestTM(t, WriteBack, nil)
	tx := tm.NewTx()
	var a uint64
	tm.Atomic(tx, func(tx *Tx) {
		a = tx.Alloc(4)
		for i := uint64(0); i < 4; i++ {
			tx.Store(a+i, ^uint64(0))
		}
	})
	tm.Atomic(tx, func(tx *Tx) { tx.Free(a, 4) })
	drainForTest(tm) // force reuse eligibility
	tm.Atomic(tx, func(tx *Tx) {
		b := tx.Alloc(4)
		for i := uint64(0); i < 4; i++ {
			if got := tx.Load(b + i); got != 0 {
				t.Errorf("reused word %d = %d, want 0", i, got)
			}
		}
	})
}

func TestReclaimBlocksWhileReaderActive(t *testing.T) {
	// A doomed reader holding an old snapshot must keep the freed block
	// out of the allocator until it finishes.
	tm, sp := newTestTM(t, WriteBack, nil)
	t1, t2 := tm.NewTx(), tm.NewTx()
	var a uint64
	tm.Atomic(t1, func(tx *Tx) { a = tx.Alloc(2); tx.Store(a, 5) })
	live := sp.LiveWords()

	t1.Begin(false) // old snapshot, active
	if !attempt(func() { _ = t1.Load(a) }) {
		t.Fatal("unexpected abort")
	}
	tm.Atomic(t2, func(tx *Tx) { tx.Free(a, 2) })
	// Drive many retire+drain cycles; the block above must survive them
	// because t1 is still active with an older start.
	for i := 0; i < 300; i++ {
		tm.Atomic(t2, func(tx *Tx) {
			x := tx.Alloc(1)
			tx.Store(x, 1)
			tx.Free(x, 1)
		})
	}
	if got := sp.LiveWords(); got < live-2 {
		t.Errorf("block reclaimed under an active old snapshot: live=%d", got)
	}
	t1.rollback(txn.AbortExplicit)
}

func TestAllocInvalidSizes(t *testing.T) {
	tm, _ := newTestTM(t, WriteBack, nil)
	tx := tm.NewTx()
	defer func() {
		if recover() == nil {
			t.Error("Alloc(0) did not panic")
		}
		if tx.InTx() {
			// Clean up so other tests are unaffected.
			tx.rollback(txn.AbortExplicit)
		}
	}()
	tm.Atomic(tx, func(tx *Tx) { tx.Alloc(0) })
}

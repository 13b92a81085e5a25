package core

import (
	"testing"

	"tinystm/internal/txn"
)

// These tests craft exact interleavings by stepping two descriptors from a
// single goroutine, which is possible because descriptors only assume
// affinity, not identity of the controlling goroutine.

func TestWriteWriteConflictAborts(t *testing.T) {
	bothDesigns(t, func(t *testing.T, d Design) {
		tm, _ := newTestTM(t, d, nil)
		t1, t2 := tm.NewTx(), tm.NewTx()
		var a uint64
		tm.Atomic(t1, func(tx *Tx) { a = tx.Alloc(1) })

		t1.Begin(false)
		if !attempt(func() { t1.Store(a, 1) }) {
			t.Fatal("t1 store aborted unexpectedly")
		}
		t2.Begin(false)
		if attempt(func() { t2.Store(a, 2) }) {
			t.Fatal("t2 store should conflict with t1's encounter-time lock")
		}
		if t2.InTx() {
			t.Error("t2 still in tx after abort")
		}
		if got := t2.TxStats().AbortsByKind[txn.AbortWriteConflict]; got != 1 {
			t.Errorf("write-conflict aborts = %d, want 1", got)
		}
		if !t1.Commit() {
			t.Fatal("t1 commit failed")
		}
	})
}

func TestReadLockedLocationAborts(t *testing.T) {
	bothDesigns(t, func(t *testing.T, d Design) {
		tm, _ := newTestTM(t, d, nil)
		t1, t2 := tm.NewTx(), tm.NewTx()
		var a uint64
		tm.Atomic(t1, func(tx *Tx) { a = tx.Alloc(1) })

		t1.Begin(false)
		if !attempt(func() { t1.Store(a, 1) }) {
			t.Fatal("unexpected abort")
		}
		t2.Begin(false)
		if attempt(func() { _ = t2.Load(a) }) {
			t.Fatal("t2 load of locked location should abort")
		}
		if got := t2.TxStats().AbortsByKind[txn.AbortReadConflict]; got != 1 {
			t.Errorf("read-conflict aborts = %d, want 1", got)
		}
		if !t1.Commit() {
			t.Fatal("t1 commit failed")
		}
	})
}

func TestSnapshotExtensionSucceeds(t *testing.T) {
	// t1 reads a; t2 commits a write to b (bumping the clock); t1 then
	// reads b, forcing an extension that succeeds because a is untouched.
	designsAndClock(t, func(t *testing.T, d Design) {
		tm, _ := newTestTM(t, d, nil)
		t1, t2 := tm.NewTx(), tm.NewTx()
		var a, b uint64
		tm.Atomic(t1, func(tx *Tx) {
			a, b = tx.Alloc(1), tx.Alloc(1)
			tx.Store(a, 10)
			tx.Store(b, 20)
		})

		t1.Begin(false)
		var got uint64
		if !attempt(func() { got = t1.Load(a) }) {
			t.Fatal("t1 read aborted")
		}
		if got != 10 {
			t.Fatalf("t1 read a = %d, want 10", got)
		}
		_, endBefore := t1.Snapshot()

		tm.Atomic(t2, func(tx *Tx) { tx.Store(b, 21) })

		if !attempt(func() { got = t1.Load(b) }) {
			t.Fatal("t1 read of b should extend, not abort")
		}
		if got != 21 {
			t.Errorf("t1 read b = %d, want 21 (extended snapshot)", got)
		}
		if _, endAfter := t1.Snapshot(); endAfter <= endBefore {
			t.Errorf("snapshot end not extended: %d -> %d", endBefore, endAfter)
		}
		if t1.TxStats().Extensions != 1 {
			t.Errorf("extensions = %d, want 1", t1.TxStats().Extensions)
		}
		// t1 wrote nothing; stores something to force validating commit.
		if !attempt(func() { t1.Store(a, 11) }) {
			t.Fatal("t1 store aborted")
		}
		if !t1.Commit() {
			t.Error("t1 commit failed after valid extension")
		}
	})
}

func TestSnapshotExtensionFailsOnStaleRead(t *testing.T) {
	// t1 reads a; t2 commits writes to BOTH a and b; t1 then reads b:
	// extension must fail because a changed after t1 read it.
	designsAndClock(t, func(t *testing.T, d Design) {
		tm, _ := newTestTM(t, d, nil)
		t1, t2 := tm.NewTx(), tm.NewTx()
		var a, b uint64
		tm.Atomic(t1, func(tx *Tx) {
			a, b = tx.Alloc(1), tx.Alloc(1)
			tx.Store(a, 10)
			tx.Store(b, 20)
		})

		t1.Begin(false)
		if !attempt(func() { _ = t1.Load(a) }) {
			t.Fatal("t1 read aborted")
		}
		tm.Atomic(t2, func(tx *Tx) {
			tx.Store(a, 11)
			tx.Store(b, 21)
		})
		if attempt(func() { _ = t1.Load(b) }) {
			t.Fatal("t1 read of b should abort: snapshot not extensible")
		}
		if got := t1.TxStats().AbortsByKind[txn.AbortExtend]; got != 1 {
			t.Errorf("extend aborts = %d, want 1", got)
		}
	})
}

func TestCommitValidationFailure(t *testing.T) {
	// t1 reads a, t2 commits a write to a, t1 writes b and tries to
	// commit: read-set validation must fail — the ts == start+1 skip must
	// never swallow this conflict.
	designsAndClock(t, func(t *testing.T, d Design) {
		tm, _ := newTestTM(t, d, nil)
		t1, t2 := tm.NewTx(), tm.NewTx()
		var a, b uint64
		tm.Atomic(t1, func(tx *Tx) {
			a, b = tx.Alloc(1), tx.Alloc(1)
			tx.Store(a, 10)
		})

		t1.Begin(false)
		if !attempt(func() {
			_ = t1.Load(a)
			t1.Store(b, 1)
		}) {
			t.Fatal("unexpected abort")
		}
		tm.Atomic(t2, func(tx *Tx) { tx.Store(a, 11) })
		if t1.Commit() {
			t.Fatal("t1 commit should fail validation")
		}
		if got := t1.TxStats().AbortsByKind[txn.AbortValidate]; got != 1 {
			t.Errorf("validate aborts = %d, want 1", got)
		}
	})
}

func TestReadOnlyAbortsInsteadOfExtending(t *testing.T) {
	tm, _ := newTestTM(t, WriteBack, nil)
	t1, t2 := tm.NewTx(), tm.NewTx()
	var a, b uint64
	tm.Atomic(t1, func(tx *Tx) {
		a, b = tx.Alloc(1), tx.Alloc(1)
	})

	t1.Begin(true)
	if !attempt(func() { _ = t1.Load(a) }) {
		t.Fatal("unexpected abort")
	}
	tm.Atomic(t2, func(tx *Tx) { tx.Store(b, 1) })
	if attempt(func() { _ = t1.Load(b) }) {
		t.Fatal("read-only tx should abort on newer version (no read set to extend)")
	}
	if got := t1.TxStats().AbortsByKind[txn.AbortExtend]; got != 1 {
		t.Errorf("extend aborts = %d, want 1", got)
	}
}

func TestConsistentReadsNoTornSnapshot(t *testing.T) {
	// Invariant x+y == 100. t1 reads x, t2 moves 10 from x to y, t1 reads
	// y: the snapshot must be consistent — either extension covers both
	// or the transaction aborts. It must never see x_old with y_new.
	bothDesigns(t, func(t *testing.T, d Design) {
		tm, _ := newTestTM(t, d, nil)
		t1, t2 := tm.NewTx(), tm.NewTx()
		var x, y uint64
		tm.Atomic(t1, func(tx *Tx) {
			x, y = tx.Alloc(1), tx.Alloc(1)
			tx.Store(x, 60)
			tx.Store(y, 40)
		})

		t1.Begin(false)
		var vx, vy uint64
		okX := attempt(func() { vx = t1.Load(x) })
		if !okX {
			t.Fatal("unexpected abort reading x")
		}
		tm.Atomic(t2, func(tx *Tx) {
			tx.Store(x, tx.Load(x)-10)
			tx.Store(y, tx.Load(y)+10)
		})
		if attempt(func() { vy = t1.Load(y) }) {
			if vx+vy != 100 {
				t.Fatalf("torn snapshot: x=%d y=%d", vx, vy)
			}
			// Extension failed is also acceptable; if we got here the
			// snapshot extended and both values are from the new state.
		}
	})
}

func TestWriteThroughDirtyReadPrevented(t *testing.T) {
	// Write-through writes to memory before commit; a concurrent reader
	// must abort rather than observe the uncommitted value.
	tm, _ := newTestTM(t, WriteThrough, nil)
	t1, t2 := tm.NewTx(), tm.NewTx()
	var a uint64
	tm.Atomic(t1, func(tx *Tx) { a = tx.Alloc(1); tx.Store(a, 1) })

	t1.Begin(false)
	if !attempt(func() { t1.Store(a, 999) }) {
		t.Fatal("unexpected abort")
	}
	// Memory now holds 999 under lock.
	if got := tm.Space().Load(1); got != 999 && a == 1 {
		_ = got // not asserting exact address; the point is the read below
	}
	t2.Begin(false)
	if attempt(func() { _ = t2.Load(a) }) {
		t.Fatal("reader must abort on locked location, not see dirty data")
	}
	// t1 aborts; memory restored; a new reader sees the committed value.
	t1.rollback(txn.AbortExplicit)
	tm.Atomic(t2, func(tx *Tx) {
		if got := tx.Load(a); got != 1 {
			t.Errorf("after abort read = %d, want 1", got)
		}
	})
}

func TestSerializableIncrements(t *testing.T) {
	// Two descriptors alternately incrementing the same counter through
	// full Atomic blocks must produce exactly the sum of commits.
	designsAndClock(t, func(t *testing.T, d Design) {
		tm, _ := newTestTM(t, d, nil)
		t1, t2 := tm.NewTx(), tm.NewTx()
		var a uint64
		tm.Atomic(t1, func(tx *Tx) { a = tx.Alloc(1) })
		const n = 100
		for i := 0; i < n; i++ {
			tm.Atomic(t1, func(tx *Tx) { tx.Store(a, tx.Load(a)+1) })
			tm.Atomic(t2, func(tx *Tx) { tx.Store(a, tx.Load(a)+1) })
		}
		tm.Atomic(t1, func(tx *Tx) {
			if got := tx.Load(a); got != 2*n {
				t.Errorf("counter = %d, want %d", got, 2*n)
			}
		})
	})
}

func TestLockReleasedAfterCommitHasNewVersion(t *testing.T) {
	// Single-threaded, commit timestamps are dense, so the released
	// version is exactly clock+1.
	designsAndClock(t, func(t *testing.T, d Design) {
		tm, _ := newTestTM(t, d, nil)
		tx := tm.NewTx()
		var a uint64
		tm.Atomic(tx, func(tx *Tx) { a = tx.Alloc(1) })
		clockBefore := tm.ClockValue()
		tm.Atomic(tx, func(tx *Tx) { tx.Store(a, 5) })
		g := tm.geo.Load()
		lw := g.loadLock(g.lockIndex(a))
		if isOwned(lw) {
			t.Fatal("lock owned after commit")
		}
		if got := version(d, lw); got != clockBefore+1 {
			t.Errorf("lock version = %d, want %d", got, clockBefore+1)
		}
	})
}

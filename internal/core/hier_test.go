package core

import (
	"testing"

	"tinystm/internal/txn"
)

func TestHierFastPathSkipsValidation(t *testing.T) {
	// With hierarchical locking, an update transaction whose buckets saw
	// no foreign writes must skip per-entry validation entirely.
	tm, _ := newTestTM(t, WriteBack, func(c *Config) { c.Hier = 4 })
	t1, t2 := tm.NewTx(), tm.NewTx()
	var a uint64
	tm.Atomic(t1, func(tx *Tx) {
		a = tx.Alloc(32)
		for i := uint64(0); i < 32; i++ {
			tx.Store(a+i, i)
		}
	})

	// Force a validating commit: bump the clock with an unrelated commit
	// *before* t1 starts so ts != start+1, while touching an address far
	// away (different bucket is not guaranteed, so commit it first —
	// counters recorded at first access already include it).
	var far uint64
	tm.Atomic(t2, func(tx *Tx) { far = tx.Alloc(1); tx.Store(far, 1) })

	before := t1.TxStats()
	t1.Begin(false)
	if !attempt(func() {
		for i := uint64(0); i < 32; i++ {
			_ = t1.Load(a + i)
		}
		t1.Store(a, 100)
	}) {
		t.Fatal("unexpected abort")
	}
	// Another commit between begin and commit forces validation.
	tm.Atomic(t2, func(tx *Tx) { tx.Store(far, 2) })
	if !t1.Commit() {
		t.Fatal("commit failed; far address should be in a different stripe history")
	}
	d := t1.TxStats().Sub(before)
	if d.LocksSkipped == 0 {
		t.Errorf("expected skipped validation entries, got skipped=%d checked=%d",
			d.LocksSkipped, d.LocksValidated)
	}
}

func TestHierFallbackStillValidatesCorrectly(t *testing.T) {
	// When a foreign transaction writes into a bucket we read, the fast
	// path must not mask the conflict: validation must fail.
	tm, _ := newTestTM(t, WriteBack, func(c *Config) { c.Hier = 4 })
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
		t.Fatal("commit must fail: bucket counter changed and entry is stale")
	}
	if got := t1.TxStats().AbortsByKind[txn.AbortValidate]; got != 1 {
		t.Errorf("validate aborts = %d, want 1", got)
	}
}

func TestHierOwnWriteCounterRule(t *testing.T) {
	// A transaction that both reads and writes in the same bucket must
	// still use the fast path: counter == snapshot+1 with the write-mask
	// bit set.
	tm, _ := newTestTM(t, WriteBack, func(c *Config) { c.Hier = 4 })
	t1, t2 := tm.NewTx(), tm.NewTx()
	var a uint64
	tm.Atomic(t1, func(tx *Tx) {
		a = tx.Alloc(16)
		for i := uint64(0); i < 16; i++ {
			tx.Store(a+i, i)
		}
	})
	var far uint64
	tm.Atomic(t2, func(tx *Tx) { far = tx.Alloc(1) })

	before := t1.TxStats()
	t1.Begin(false)
	if !attempt(func() {
		for i := uint64(0); i < 16; i++ {
			_ = t1.Load(a + i)
		}
		t1.Store(a+1, 99) // same bucket as the reads (same stripe region)
	}) {
		t.Fatal("unexpected abort")
	}
	tm.Atomic(t2, func(tx *Tx) { tx.Store(far, 1) }) // force validation
	if !t1.Commit() {
		t.Fatal("commit failed")
	}
	d := t1.TxStats().Sub(before)
	if d.LocksSkipped == 0 {
		t.Errorf("own-write bucket should still fast-path: skipped=%d checked=%d",
			d.LocksSkipped, d.LocksValidated)
	}
}

func TestHierCounterPerAcquisition(t *testing.T) {
	// Counters are bumped once per lock acquisition (see the deviation
	// note in hier.go): repeated stores under one lock bump once; stores
	// under two locks in the same bucket bump twice.
	tm, _ := newTestTM(t, WriteBack, func(c *Config) {
		c.Locks = 1 << 8
		c.Shifts = 2 // 4 consecutive words share a lock
		c.Hier = 4
	})
	tx := tm.NewTx()
	var a uint64
	tm.Atomic(tx, func(tx *Tx) { a = tx.Alloc(16) })
	g := tm.geo.Load()

	// Same lock (addresses within one 2^2-word stripe): one increment.
	b := g.hierIndex(a)
	before := g.hier[b].v.Load()
	tm.Atomic(tx, func(tx *Tx) {
		tx.Store(a, 1)
		tx.Store(a+1, 2)
		tx.Store(a+2, 3)
	})
	if got := g.hier[b].v.Load() - before; got != 1 {
		t.Errorf("same-lock stores bumped counter %d times, want 1", got)
	}

	// Two different locks in the same bucket: find a second stripe with
	// the same hier index (stripe base + lockCount*stripeWidth wraps to
	// the same lock only after the full array; easier: a+4 has the next
	// lock; same bucket iff hierIndex matches).
	if g.hierIndex(a) == g.hierIndex(a+4) && g.lockIndex(a) != g.lockIndex(a+4) {
		before = g.hier[b].v.Load()
		tm.Atomic(tx, func(tx *Tx) {
			tx.Store(a, 9)
			tx.Store(a+4, 9)
		})
		if got := g.hier[b].v.Load() - before; got != 2 {
			t.Errorf("two-lock stores bumped counter %d times, want 2", got)
		}
	}
}

func TestHierLateAcquisitionInSnapshottedBucketIsDetected(t *testing.T) {
	// The counterexample to the paper's first-write-only increment rule
	// (see hier.go): writer W increments the bucket counter before
	// reader R snapshots it, then acquires a *second* lock in the same
	// bucket after R has read that address. R's validation must not take
	// the fast path — with per-acquisition counting, W's late
	// acquisition is visible and R aborts.
	tm, _ := newTestTM(t, WriteBack, func(c *Config) {
		c.Locks = 1 << 8
		c.Shifts = 0
		c.Hier = 4
	})
	w, r := tm.NewTx(), tm.NewTx()
	var a1, a2, other uint64
	setup := tm.NewTx()
	tm.Atomic(setup, func(tx *Tx) {
		base := tx.Alloc(16)
		a1, a2 = base, base+4 // same bucket (4 divides both), different locks
		other = base + 9
		tx.Store(a2, 10)
	})
	g := tm.geo.Load()
	if g.hierIndex(a1) != g.hierIndex(a2) || g.lockIndex(a1) == g.lockIndex(a2) {
		t.Skip("geometry did not produce two locks in one bucket")
	}

	// W: first write to the bucket (increments counter), holds the lock.
	w.Begin(false)
	if !attempt(func() { w.Store(a1, 1) }) {
		t.Fatal("unexpected abort")
	}
	// R: snapshots the bucket counter *after* W's increment by reading
	// a2, and writes elsewhere so commit validates.
	r.Begin(false)
	if !attempt(func() {
		_ = r.Load(a2)
		r.Store(other, 1)
	}) {
		t.Fatal("unexpected abort")
	}
	// W: second acquisition in the same bucket — the one the paper's
	// write-mask rule would hide — then commit, making R's read stale.
	if !attempt(func() { w.Store(a2, 11) }) {
		t.Fatal("W's second store aborted")
	}
	if !w.Commit() {
		t.Fatal("W commit failed")
	}
	if r.Commit() {
		t.Fatal("R committed with a stale read: hierarchical fast path unsound")
	}
}

func TestHierConsistencyLockImpliesCounter(t *testing.T) {
	// Property from Section 3.2: two addresses mapping to the same lock
	// must map to the same counter, across geometries.
	for _, p := range []Params{
		{Locks: 1 << 4, Shifts: 0, Hier: 4},
		{Locks: 1 << 8, Shifts: 2, Hier: 16},
		{Locks: 1 << 10, Shifts: 5, Hier: 64},
	} {
		g := newGeometry(p)
		for addr := uint64(0); addr < 1<<12; addr++ {
			other := addr + (p.Locks << p.Shifts) // same lock by construction
			if g.lockIndex(addr) != g.lockIndex(other) {
				t.Fatalf("construction broken for %+v", p)
			}
			if g.hierIndex(addr) != g.hierIndex(other) {
				t.Fatalf("same lock, different counter: params %+v addr %d", p, addr)
			}
		}
	}
}

func TestHierDisabledUsesSinglePartition(t *testing.T) {
	tm, _ := newTestTM(t, WriteBack, nil) // Hier defaults to 1
	tx := tm.NewTx()
	var a uint64
	tm.Atomic(tx, func(tx *Tx) { a = tx.Alloc(4) })
	tm.Atomic(tx, func(tx *Tx) {
		_ = tx.Load(a)
		_ = tx.Load(a + 3)
		if tx.nparts != 1 {
			t.Errorf("nparts = %d, want 1 with hier disabled", tx.nparts)
		}
		tx.Store(a, 1)
	})
}

func TestHierCorrectnessUnderContention(t *testing.T) {
	// Bank invariant with hierarchical locking enabled and a tiny lock
	// array (to maximize false sharing): total must stay constant.
	for _, h := range []uint64{4, 16, 64} {
		tm, _ := newTestTM(t, WriteBack, func(c *Config) {
			c.Locks = 1 << 6
			c.Hier = h
		})
		runBankStress(t, tm, 4, 200)
	}
}

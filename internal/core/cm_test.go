package core

import (
	"runtime"
	"testing"

	"tinystm/internal/txn"
)

// Contention-management extension tests: bounded spinning on conflicts
// (Config.ConflictSpin) and randomized backoff (CM: cm.Backoff).

func TestSpinDisabledAbortsImmediately(t *testing.T) {
	tm, _ := newTestTM(t, WriteBack, nil) // ConflictSpin = 0
	t1, t2 := tm.NewTx(), tm.NewTx()
	var a uint64
	tm.Atomic(t1, func(tx *Tx) { a = tx.Alloc(1) })
	t1.Begin(false)
	if !attempt(func() { t1.Store(a, 1) }) {
		t.Fatal("unexpected abort")
	}
	t2.Begin(false)
	if attempt(func() { t2.Store(a, 2) }) {
		t.Fatal("expected immediate abort with spinning disabled")
	}
	if !t1.Commit() {
		t.Fatal("t1 commit failed")
	}
}

func TestSpinWaitsOutShortConflicts(t *testing.T) {
	// With a generous spin budget, a writer that conflicts with a
	// transaction about to commit should usually win without aborting.
	tm, _ := newTestTM(t, WriteBack, func(c *Config) { c.ConflictSpin = 1 << 20 })
	t1, t2 := tm.NewTx(), tm.NewTx()
	var a uint64
	tm.Atomic(t1, func(tx *Tx) { a = tx.Alloc(1) })

	t1.Begin(false)
	if !attempt(func() { t1.Store(a, 1) }) {
		t.Fatal("unexpected abort")
	}
	released := make(chan struct{})
	go func() {
		// Give t2 time to start spinning, then release the lock.
		for i := 0; i < 100; i++ {
			runtime.Gosched()
		}
		if !t1.Commit() {
			t.Error("t1 commit failed")
		}
		close(released)
	}()
	tm.Atomic(t2, func(tx *Tx) { tx.Store(a, tx.Load(a)+1) })
	<-released
	tm.Atomic(t1, func(tx *Tx) {
		if got := tx.Load(a); got != 2 {
			t.Errorf("value = %d, want 2", got)
		}
	})
}

func TestSpinBudgetExhaustionAborts(t *testing.T) {
	// A small budget against a lock that is never released must abort.
	tm, _ := newTestTM(t, WriteBack, func(c *Config) { c.ConflictSpin = 32 })
	t1, t2 := tm.NewTx(), tm.NewTx()
	var a uint64
	tm.Atomic(t1, func(tx *Tx) { a = tx.Alloc(1) })
	t1.Begin(false)
	if !attempt(func() { t1.Store(a, 1) }) {
		t.Fatal("unexpected abort")
	}
	t2.Begin(false)
	if attempt(func() { _ = t2.Load(a) }) {
		t.Fatal("expected abort after spin budget exhausted")
	}
	if got := t2.TxStats().AbortsByKind[txn.AbortReadConflict]; got != 1 {
		t.Errorf("read-conflict aborts = %d, want 1", got)
	}
	if !t1.Commit() {
		t.Fatal("t1 commit failed")
	}
}

func TestBankInvariantWithSpin(t *testing.T) {
	bothDesigns(t, func(t *testing.T, d Design) {
		tm, _ := newTestTM(t, d, func(c *Config) { c.ConflictSpin = 256 })
		runBankStress(t, tm, 4, 300)
	})
}

func TestSerializabilityWithSpin(t *testing.T) {
	tm, _ := newTestTM(t, WriteBack, func(c *Config) { c.ConflictSpin = 128 })
	runSerializabilityCheck(t, tm, 4, 200, 8)
}

func TestBankInvariantWithYield(t *testing.T) {
	// The interleaving simulation must not affect correctness.
	bothDesigns(t, func(t *testing.T, d Design) {
		tm, _ := newTestTM(t, d, func(c *Config) { c.YieldEvery = 4 })
		runBankStress(t, tm, 4, 200)
	})
}

func TestSerializabilityWithYield(t *testing.T) {
	tm, _ := newTestTM(t, WriteBack, func(c *Config) { c.YieldEvery = 2 })
	runSerializabilityCheck(t, tm, 4, 200, 8)
}

func TestYieldSurfacesConflicts(t *testing.T) {
	// With yielding every load, concurrent list traversals must overlap
	// and produce aborts even on a single-CPU host.
	tm, _ := newTestTM(t, WriteBack, func(c *Config) { c.YieldEvery = 1 })
	runBankStress(t, tm, 4, 400)
	if tm.Stats().Aborts == 0 {
		t.Log("no aborts surfaced; acceptable but unexpected under yield=1")
	}
}

package core

import (
	"sync"
	"testing"

	"tinystm/internal/mem"
)

// commitOnce runs one trivial update transaction on tx.
func commitOnce(tm *TM, tx *Tx, addr uint64) {
	tm.Atomic(tx, func(tx *Tx) { tx.Store(addr, tx.Load(addr)+1) })
}

// Release must recycle the slot: a NewTx after a Release hands back the
// same descriptor instead of burning a fresh slot.
func TestReleaseReusesDescriptor(t *testing.T) {
	tm, _ := newTestTM(t, WriteBack, nil)
	a := tm.NewTx()
	commitOnce(tm, a, 0)
	slot := a.Slot()
	a.Release()
	b := tm.NewTx()
	if b != a || b.Slot() != slot {
		t.Fatalf("NewTx after Release minted a fresh descriptor (slot %d, want %d)", b.Slot(), slot)
	}
	commitOnce(tm, b, 0)
	if got := tm.Stats().Commits; got != 2 {
		t.Fatalf("Stats().Commits = %d, want 2", got)
	}
}

// A released descriptor's counters must survive recycling: they stay with
// the slot, and the reissued descriptor continues them without double
// counting.
func TestReleasePreservesStats(t *testing.T) {
	tm, _ := newTestTM(t, WriteBack, nil)
	tx := tm.NewTx()
	for i := 0; i < 5; i++ {
		commitOnce(tm, tx, uint64(i))
	}
	before := tm.Stats()
	tx.Release()
	after := tm.Stats()
	if before != after {
		t.Fatalf("Stats changed across Release:\nbefore %+v\nafter  %+v", before, after)
	}
	if after.Commits != 5 {
		t.Fatalf("Commits = %d, want 5", after.Commits)
	}
	// The reissued descriptor continues its slot's totals.
	re := tm.NewTx()
	if s := re.TxStats(); s.Commits != 5 || s.Aborts != 0 {
		t.Fatalf("reissued descriptor's counters = %+v, want its slot's 5 commits", s)
	}
	commitOnce(tm, re, 0)
	if got := tm.Stats().Commits; got != 6 {
		t.Fatalf("Commits after reuse = %d, want 6", got)
	}
}

// A server that keeps spawning short-lived workers must never exhaust
// maxSlots as long as workers release their descriptors. This is the
// regression for the unbounded tm.descs growth: without the free list the
// loop below panics at maxSlots descriptors.
func TestReleasePreventsSlotExhaustion(t *testing.T) {
	tm, _ := newTestTM(t, WriteBack, nil)
	const workers = 4
	rounds := maxSlots/workers + 16 // enough worker lifetimes to overflow without reuse
	if testing.Short() {
		rounds = 2048
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				tx := tm.NewTx()
				commitOnce(tm, tx, uint64(w))
				tx.Release()
			}
		}(w)
	}
	wg.Wait()
	if got, want := tm.Stats().Commits, uint64(workers*rounds); got != want {
		t.Fatalf("Commits = %d, want %d", got, want)
	}
	if minted, _ := tm.DescriptorCounts(); minted > workers {
		t.Fatalf("minted %d descriptors for %d concurrent workers", minted, workers)
	}
}

// Misuse panics: releasing twice, releasing mid-transaction, and running a
// released descriptor.
func TestReleaseMisusePanics(t *testing.T) {
	tm, _ := newTestTM(t, WriteBack, nil)
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	tx := tm.NewTx()
	tx.Begin(false)
	mustPanic("Release inside transaction", tx.Release)
	tx.Commit()
	tx.Release()
	mustPanic("double Release", tx.Release)
	mustPanic("Begin on released descriptor", func() { tx.Begin(false) })
}

// The O(1) aggregate counters must agree with the full Stats snapshot,
// including across Release/recycle cycles and aborted transactions.
func TestAggregateCountsMatchStats(t *testing.T) {
	tm, _ := newTestTM(t, WriteBack, nil)
	tx := tm.NewTx()
	for i := 0; i < 10; i++ {
		commitOnce(tm, tx, 0)
	}
	// Force one abort: an explicit Retry aborts, then commits on the retry
	// attempt.
	first := true
	tm.Atomic(tx, func(tx *Tx) {
		tx.Store(1, 1)
		if first {
			first = false
			tx.Retry()
		}
	})
	tx.Release()
	re := tm.NewTx()
	commitOnce(tm, re, 2)

	s := tm.Stats()
	c, a := tm.CommitAbortCounts()
	if c != s.Commits || a != s.Aborts {
		t.Fatalf("CommitAbortCounts = (%d, %d), Stats = (%d, %d)", c, a, s.Commits, s.Aborts)
	}
	if c != 12 || a != 1 {
		t.Fatalf("counts = (%d, %d), want (12, 1)", c, a)
	}
}

// configFor must reproduce the TM's construction-time configuration with
// only the tunable triple substituted: Reconfigure validates through the
// same field set New saw (the regression: a hand-rolled Config in
// Reconfigure silently dropping fields added later).
func TestConfigForCarriesAllFields(t *testing.T) {
	sp := mem.NewSpace(1 << 12)
	base := Config{
		Space: sp, Locks: 1 << 10, Shifts: 2, Hier: 4,
		Design: WriteThrough, MaxClock: 1 << 20,
		SnapshotBudget: 64, YieldEvery: 3,
	}
	tm := MustNew(base)
	p := Params{Locks: 1 << 12, Shifts: 1, Hier: 8}
	got := tm.configFor(p)
	want := base
	want.Locks, want.Shifts, want.Hier = p.Locks, p.Shifts, p.Hier
	if got != want {
		t.Fatalf("configFor dropped fields:\ngot  %+v\nwant %+v", got, want)
	}
}

package core

import (
	"sync"
	"testing"

	"tinystm/internal/rng"
)

// runBankStress moves money between accounts from several goroutines and
// checks the conservation invariant. Shared helper for stress-style tests.
func runBankStress(t *testing.T, tm *TM, workers, iters int) {
	t.Helper()
	const accounts = 64
	const initial = 1000
	setup := tm.NewTx()
	var base uint64
	tm.Atomic(setup, func(tx *Tx) {
		base = tx.Alloc(accounts)
		for i := uint64(0); i < accounts; i++ {
			tx.Store(base+i, initial)
		}
	})

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			r := rng.NewThread(42, id)
			tx := tm.NewTx()
			for i := 0; i < iters; i++ {
				from := uint64(r.Intn(accounts))
				to := uint64(r.Intn(accounts))
				amt := uint64(r.Intn(10))
				tm.Atomic(tx, func(tx *Tx) {
					f := tx.Load(base + from)
					if f < amt {
						return
					}
					tx.Store(base+from, f-amt)
					tx.Store(base+to, tx.Load(base+to)+amt)
				})
				if i%16 == 0 {
					// Interleave read-only audits.
					tm.AtomicRO(tx, func(tx *Tx) {
						var sum uint64
						for j := uint64(0); j < accounts; j++ {
							sum += tx.Load(base + j)
						}
						if sum != accounts*initial {
							t.Errorf("torn audit: sum=%d want %d", sum, accounts*initial)
						}
					})
				}
			}
		}(w)
	}
	wg.Wait()

	tm.Atomic(setup, func(tx *Tx) {
		var sum uint64
		for j := uint64(0); j < accounts; j++ {
			sum += tx.Load(base + j)
		}
		if sum != accounts*initial {
			t.Errorf("final sum = %d, want %d", sum, accounts*initial)
		}
	})
}

func TestBankInvariantWriteBack(t *testing.T) {
	tm, _ := newTestTM(t, WriteBack, nil)
	runBankStress(t, tm, 4, 500)
}

func TestBankInvariantWriteThrough(t *testing.T) {
	tm, _ := newTestTM(t, WriteThrough, nil)
	runBankStress(t, tm, 4, 500)
}

func TestBankInvariantTinyLockArray(t *testing.T) {
	// 4 locks: extreme false sharing; correctness must be unaffected.
	bothDesigns(t, func(t *testing.T, d Design) {
		tm, _ := newTestTM(t, d, func(c *Config) { c.Locks = 4 })
		runBankStress(t, tm, 4, 300)
	})
}

func TestBankInvariantHighShift(t *testing.T) {
	bothDesigns(t, func(t *testing.T, d Design) {
		tm, _ := newTestTM(t, d, func(c *Config) { c.Shifts = 6 })
		runBankStress(t, tm, 4, 300)
	})
}

// TestBankInvariantWithBackoff keeps the bank invariant under the one
// conflict rule's wait: yielding on every access makes transfers collide,
// so losers abort and wait for the winning lock (Tx.awaitConflict) before
// they retry.
func TestBankInvariantWithBackoff(t *testing.T) {
	tm, _ := newTestTM(t, WriteBack, func(c *Config) { c.YieldEvery = 1 })
	runBankStress(t, tm, 4, 300)
}

func TestConcurrentAllocFree(t *testing.T) {
	bothDesigns(t, func(t *testing.T, d Design) {
		tm, sp := newTestTM(t, d, nil)
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				tx := tm.NewTx()
				var mine []uint64
				for i := 0; i < 200; i++ {
					// Record the committed address only after Atomic
					// returns: an aborted attempt rolls its Alloc back,
					// and appending inside the body would keep the dead
					// address and later Free an uncommitted block.
					var a uint64
					tm.Atomic(tx, func(tx *Tx) {
						a = tx.Alloc(3)
						tx.Store(a, uint64(id))
						tx.Store(a+1, uint64(i))
						tx.Store(a+2, uint64(id*i))
					})
					mine = append(mine, a)
					if len(mine) > 8 {
						victim := mine[0]
						mine = mine[1:]
						tm.Atomic(tx, func(tx *Tx) { tx.Free(victim, 3) })
					}
				}
			}(w)
		}
		wg.Wait()
		if sp.LiveWords() == 0 {
			t.Error("expected some live words")
		}
	})
}

// CommitAbortCounts must stay monotonic under concurrent commit/abort
// traffic and Release/NewTx descriptor churn: the tuning runtime
// differentiates it.
func TestCommitAbortCountsMonotonicUnderChurn(t *testing.T) {
	tm, _ := newTestTM(t, WriteBack, nil)
	setup := tm.NewTx()
	var a uint64
	tm.Atomic(setup, func(tx *Tx) { a = tx.Alloc(1) })
	setup.Release()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// Short-lived descriptors: mint, run one committing and
				// one aborting transaction, release.
				tx := tm.NewTx()
				tm.Atomic(tx, func(t *Tx) { t.Store(a, t.Load(a)+1) })
				first := true
				tm.Atomic(tx, func(t *Tx) {
					t.Store(a, t.Load(a))
					if first {
						first = false
						t.Retry() // deterministic abort
					}
				})
				tx.Release()
			}
		}(w)
	}
	var lastC, lastA, lastSC, lastSA uint64
	for i := 0; i < 5000; i++ {
		c, x := tm.CommitAbortCounts()
		if c < lastC || x < lastA {
			t.Fatalf("aggregates went backwards: (%d,%d) after (%d,%d)", c, x, lastC, lastA)
		}
		lastC, lastA = c, x
		if i%50 == 0 {
			// The full snapshot path must stay monotonic under the same
			// churn (Release folds counters into the retired aggregate).
			s := tm.Stats()
			if s.Commits < lastSC || s.Aborts < lastSA {
				t.Fatalf("Stats went backwards: (%d,%d) after (%d,%d)",
					s.Commits, s.Aborts, lastSC, lastSA)
			}
			lastSC, lastSA = s.Commits, s.Aborts
		}
	}
	close(stop)
	wg.Wait()
	c, x := tm.CommitAbortCounts()
	s := tm.Stats()
	if c != s.Commits || x != s.Aborts {
		t.Fatalf("aggregates (%d,%d) disagree with Stats (%d,%d) at quiescence",
			c, x, s.Commits, s.Aborts)
	}
}

package core

import (
	"sync"
	"testing"

	"tinystm/internal/cm"
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

func TestBankInvariantWithBackoff(t *testing.T) {
	tm, _ := newTestTM(t, WriteBack, func(c *Config) { c.CM = cm.Backoff })
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

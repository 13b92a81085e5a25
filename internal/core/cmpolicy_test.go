package core

import (
	"runtime"
	"sync"
	"testing"

	"tinystm/internal/cm"
	"tinystm/internal/txn"
)

// Contention-management subsystem tests: the policy hook in the conflict
// paths, cooperative kills, live policy switching, and the correctness
// suites under every policy.

// A kill request from a winning policy must abort the victim at its next
// commit checkpoint — cooperatively, with the victim classifying the abort
// as AbortKilled and releasing its locks.
func TestKillRequestAbortsVictimAtCommit(t *testing.T) {
	bothDesigns(t, func(t *testing.T, d Design) {
		tm, _ := newTestTM(t, d, func(c *Config) { c.CM = cm.Timestamp })
		t1, t2 := tm.NewTx(), tm.NewTx()
		var a uint64
		tm.Atomic(t1, func(tx *Tx) { a = tx.Alloc(1); tx.Store(a, 1) })

		// t1 takes the lock at the low-level API (no atomic block, so no
		// age: the Timestamp policy treats it as youngest and any tracked
		// transaction out-prioritizes it).
		t1.Begin(false)
		if !attempt(func() { t1.Store(a, 10) }) {
			t.Fatal("unexpected abort")
		}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			tm.Atomic(t2, func(tx *Tx) { tx.Store(a, tx.Load(a)+100) })
		}()
		// Wait until t2's conflict resolution has asked t1 to die.
		for !t1.cmst.Doomed() {
			runtime.Gosched()
		}
		if t1.Commit() {
			t.Fatal("doomed transaction committed")
		}
		wg.Wait()
		if got := t1.TxStats().AbortsByKind[txn.AbortKilled]; got != 1 {
			t.Errorf("killed aborts = %d, want 1", got)
		}
		tm.Atomic(t1, func(tx *Tx) {
			if got := tx.Load(a); got != 101 {
				t.Errorf("value = %d, want 101 (t2's update over the committed 1)", got)
			}
		})
	})
}

// A doomed victim parked in its read phase must also notice the request on
// the load slow path.
func TestKillRequestAbortsVictimOnLoad(t *testing.T) {
	tm, _ := newTestTM(t, WriteBack, func(c *Config) { c.CM = cm.Timestamp })
	t1, t2 := tm.NewTx(), tm.NewTx()
	var a, b uint64
	tm.Atomic(t1, func(tx *Tx) { a, b = tx.Alloc(1), tx.Alloc(1) })

	t1.Begin(false)
	if !attempt(func() { t1.Store(a, 1) }) {
		t.Fatal("unexpected abort")
	}
	// t2 locks b, then t1 is doomed and must abort when touching b.
	t2.Begin(false)
	if !attempt(func() { t2.Store(b, 2) }) {
		t.Fatal("unexpected abort")
	}
	if !t1.cmst.RequestKill(t1.cmst.Epoch()) {
		t.Fatal("RequestKill failed")
	}
	if attempt(func() { _ = t1.Load(b) }) {
		t.Fatal("doomed transaction survived a slow-path load")
	}
	if got := t1.TxStats().AbortsByKind[txn.AbortKilled]; got != 1 {
		t.Errorf("killed aborts = %d, want 1", got)
	}
	if !t2.Commit() {
		t.Fatal("t2 commit failed")
	}
}

// allCMPolicies runs f once per policy, like bothDesigns/allClockStrategies.
func allCMPolicies(t *testing.T, kinds []cm.Kind, f func(t *testing.T, k cm.Kind)) {
	t.Helper()
	for _, k := range kinds {
		k := k
		t.Run(k.String(), func(t *testing.T) { f(t, k) })
	}
}

// The bank-invariant stress suite must hold under every policy and both
// designs (the satellite requires Suicide, Backoff, Karma; the rest ride
// along for free).
func TestBankInvariantAllPolicies(t *testing.T) {
	allCMPolicies(t, cm.AllKinds, func(t *testing.T, k cm.Kind) {
		bothDesigns(t, func(t *testing.T, d Design) {
			tm, _ := newTestTM(t, d, func(c *Config) {
				c.CM = k
				// Make the serializer eager so its token path actually
				// runs inside the suite.
				c.CMKnobs = cm.Knobs{SerializerMinAborts: 1}
			})
			runBankStress(t, tm, 4, 300)
		})
	})
}

// Serializability (commit-timestamp replay) must hold under the policies
// that wait and kill, not just abort.
func TestSerializabilityAllPolicies(t *testing.T) {
	allCMPolicies(t, []cm.Kind{cm.Suicide, cm.Backoff, cm.Karma, cm.Timestamp, cm.Serializer},
		func(t *testing.T, k cm.Kind) {
			tm, _ := newTestTM(t, WriteBack, func(c *Config) {
				c.CM = k
				c.CMKnobs = cm.Knobs{SerializerMinAborts: 1}
			})
			runSerializabilityCheck(t, tm, 4, 200, 8)
		})
}

// Karma must actually accrue priority from the work of aborted attempts
// and clear it at commit.
func TestKarmaPriorityAccrues(t *testing.T) {
	tm, _ := newTestTM(t, WriteBack, func(c *Config) { c.CM = cm.Karma })
	tx := tm.NewTx()
	var a uint64
	tm.Atomic(tx, func(t *Tx) { a = t.Alloc(4) })

	first := true
	var prioFirst, prioRetry uint64
	tm.Atomic(tx, func(t *Tx) {
		for i := uint64(0); i < 4; i++ {
			t.Store(a+i, t.Load(a+i)+1)
		}
		if first {
			first = false
			prioFirst = tx.cmst.Priority()
			t.Retry()
		}
		prioRetry = tx.cmst.Priority()
	})
	if prioFirst != 0 {
		t.Errorf("priority = %d before any abort, want 0", prioFirst)
	}
	if prioRetry < 4 {
		t.Errorf("priority = %d on the retry, want >= 4 (the aborted attempt's accesses)", prioRetry)
	}
	if got := tx.cmst.Priority(); got != 0 {
		t.Errorf("priority = %d after commit, want 0", got)
	}
}

// CommitAbortCounts must stay monotonic under concurrent commit/abort
// traffic and Release/NewTx descriptor churn: the Serializer's abort-rate
// trigger and the tuning runtime both differentiate it.
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

// SetCM must switch the live policy without a freeze: in-flight
// descriptors pick it up on their next attempt and the switch count lands
// in Stats.
func TestSetCMLiveSwitch(t *testing.T) {
	tm, _ := newTestTM(t, WriteBack, nil)
	tx := tm.NewTx()
	var a uint64
	tm.Atomic(tx, func(t *Tx) { a = t.Alloc(1) })
	if tm.CM() != cm.Suicide {
		t.Fatalf("default policy = %v", tm.CM())
	}
	if err := tm.SetCM(cm.Karma, cm.Knobs{}); err != nil {
		t.Fatal(err)
	}
	if tm.CM() != cm.Karma {
		t.Errorf("CM() = %v after switch", tm.CM())
	}
	tm.Atomic(tx, func(t *Tx) { t.Store(a, 1) })
	if tx.pol.Kind() != cm.Karma {
		t.Errorf("descriptor still runs %v", tx.pol.Kind())
	}
	// Same-kind switch is not counted; invalid kinds are rejected.
	if err := tm.SetCM(cm.Karma, cm.Knobs{}); err != nil {
		t.Fatal(err)
	}
	if err := tm.SetCM(cm.Kind(42), cm.Knobs{}); err == nil {
		t.Error("SetCM accepted an invalid kind")
	}
	if got := tm.Stats().CMSwitches; got != 1 {
		t.Errorf("CMSwitches = %d, want 1", got)
	}
}

// An atomic block ending in a foreign panic must leave no policy resource
// behind: a leaked Serializer token would deadlock every later borrower.
func TestForeignPanicReleasesSerializerToken(t *testing.T) {
	tm, _ := newTestTM(t, WriteBack, func(c *Config) {
		c.CM = cm.Serializer
		c.CMKnobs = cm.Knobs{SerializerMinAborts: 1}
	})
	tx := tm.NewTx()
	var a uint64
	tm.Atomic(tx, func(t *Tx) { a = t.Alloc(1) })

	// Prime the policy's abort-ratio estimate past its threshold: each
	// block aborts once then commits, a sustained 0.5 ratio over well
	// more than one estimation window.
	for i := 0; i < 80; i++ {
		first := true
		tm.Atomic(tx, func(t *Tx) {
			t.Store(a, uint64(i))
			if first {
				first = false
				t.Retry()
			}
		})
	}

	// Abort once (acquiring the token), then panic out of the block with
	// the token held.
	tookToken := false
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic did not propagate")
			}
		}()
		first := true
		tm.Atomic(tx, func(t *Tx) {
			t.Store(a, 1)
			if first {
				first = false
				t.Retry()
			}
			tookToken = tx.cmst.HoldsToken()
			panic("boom")
		})
	}()
	if !tookToken {
		t.Fatal("serializer never granted the token; the leak path was not exercised")
	}
	if tx.cmst.HoldsToken() {
		t.Fatal("token still held after the foreign panic")
	}
	// Liveness proof: a second descriptor can acquire the token and
	// finish (the test deadline catches a leak-induced hang).
	tx2 := tm.NewTx()
	first2 := true
	tm.Atomic(tx2, func(t *Tx) {
		t.Store(a, 3)
		if first2 {
			first2 = false
			t.Retry()
		}
	})
	tx2.Release()
	tx.Release()
}

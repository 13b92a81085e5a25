package core

import (
	"sync/atomic"
	"testing"
	"time"
)

// The retry loop's wait for the lock that beat an attempt (awaitConflict,
// TinySTM's CM_DELAY): a loser restarts once that lock changes, not at
// once, so it does not spin through aborts against a long owner.

// holdLock begins a on the low-level API and stores v to x, so a owns x's
// lock until the caller commits it.
func holdLock(t *testing.T, a *Tx, x, v uint64) {
	t.Helper()
	a.Begin(false)
	if !attempt(func() { a.Store(x, v) }) {
		t.Fatal("unexpected abort taking the lock")
	}
}

// waitFor polls cond for up to d and reports whether it came true.
func waitFor(d time.Duration, cond func() bool) bool {
	for deadline := time.Now().Add(d); !cond(); {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(50 * time.Microsecond)
	}
	return true
}

// A loser that meets a lock held for 20 ms makes at most two attempts
// before the owner commits — the one that lost and the one that starts
// once the lock is released — and then sees the owner's value. Without the
// wait it makes thousands. Both conflict kinds record the lock.
func TestRetryWaitsForLock(t *testing.T) {
	bothDesigns(t, func(t *testing.T, d Design) {
		for _, tc := range []struct {
			name string
			body func(tx *Tx, x, y uint64) uint64
		}{
			{"write", func(tx *Tx, x, y uint64) uint64 { tx.Store(x, 1); return tx.Load(y) }},
			{"read", func(tx *Tx, x, y uint64) uint64 { v := tx.Load(x); tx.Store(x, 1); return v }},
		} {
			t.Run(tc.name, func(t *testing.T) {
				tm, _ := newTestTM(t, d, nil)
				a, b := tm.NewTx(), tm.NewTx()
				var x, y uint64
				tm.Atomic(a, func(tx *Tx) { x, y = tx.Alloc(1), tx.Alloc(1) })
				holdLock(t, a, x, 7)
				if !attempt(func() { a.Store(y, 7) }) {
					t.Fatal("unexpected abort")
				}

				var before atomic.Int64 // B's attempts begun before A committed
				var committed atomic.Bool
				var seen uint64
				done := make(chan struct{})
				go func() {
					defer close(done)
					tm.Atomic(b, func(tx *Tx) {
						if !committed.Load() {
							before.Add(1)
						}
						seen = tc.body(tx, x, y)
					})
				}()
				if !waitFor(5*time.Second, func() bool { return before.Load() > 0 }) {
					t.Fatal("B never started")
				}
				time.Sleep(20 * time.Millisecond)
				if !a.Commit() {
					t.Fatal("A's commit failed")
				}
				committed.Store(true)
				<-done

				if n := before.Load(); n > 2 {
					t.Errorf("B made %d attempts while A held the lock, want <= 2", n)
				}
				if seen != 7 {
					t.Errorf("B saw %d, want A's 7", seen)
				}
				if s := b.TxStats(); s.RetryWaits == 0 || s.RetryWaitNs == 0 {
					t.Errorf("RetryWaits = %d, RetryWaitNs = %d: the retry did not wait", s.RetryWaits, s.RetryWaitNs)
				}
			})
		}
	})
}

// An owner that keeps its lock for a long time delays the loser's retry
// but never stalls it: the loser keeps retrying while the lock is held and
// finishes once it is released.
func TestRetryWaitIsBounded(t *testing.T) {
	bothDesigns(t, func(t *testing.T, d Design) {
		tm, _ := newTestTM(t, d, nil)
		a, b := tm.NewTx(), tm.NewTx()
		var x uint64
		tm.Atomic(a, func(tx *Tx) { x = tx.Alloc(1) })
		holdLock(t, a, x, 7)

		var attempts atomic.Int64
		done := make(chan struct{})
		go func() {
			defer close(done)
			tm.Atomic(b, func(tx *Tx) {
				attempts.Add(1)
				tx.Store(x, tx.Load(x)+1)
			})
		}()
		if !waitFor(2*time.Second, func() bool { return attempts.Load() > 1 }) {
			t.Fatalf("B made %d attempt(s) in 2 s against a held lock: the wait is unbounded", attempts.Load())
		}
		if !a.Commit() {
			t.Fatal("A's commit failed")
		}
		<-done
		tm.Atomic(a, func(tx *Tx) {
			if got := tx.Load(x); got != 8 {
				t.Errorf("x = %d, want 8", got)
			}
		})
	})
}

// A Reconfigure requested while the loser waits goes through: the loser
// has left the freeze, so only the owner holds the barrier up, and once
// the owner finishes, the word in the retired geometry changes, the
// reconfiguration lands and the loser completes under the new geometry.
func TestRetryWaitAcrossReconfigure(t *testing.T) {
	bothDesigns(t, func(t *testing.T, d Design) {
		tm, _ := newTestTM(t, d, nil)
		a, b := tm.NewTx(), tm.NewTx()
		var x uint64
		tm.Atomic(a, func(tx *Tx) { x = tx.Alloc(1) })
		holdLock(t, a, x, 7)

		done := make(chan struct{})
		go func() {
			defer close(done)
			tm.Atomic(b, func(tx *Tx) { tx.Store(x, tx.Load(x)+1) })
		}()
		if !waitFor(5*time.Second, func() bool { return b.TxStats().Aborts > 0 }) {
			t.Fatal("B never lost to A's lock")
		}
		p := Params{Locks: 1 << 12, Shifts: 1, Hier: 4}
		reconfigured := make(chan error, 1)
		go func() { reconfigured <- tm.Reconfigure(p) }()
		if !waitFor(5*time.Second, tm.Frozen) {
			t.Fatal("the Reconfigure never raised the barrier")
		}
		if !a.Commit() {
			t.Fatal("A's commit failed")
		}
		select {
		case err := <-reconfigured:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("Reconfigure deadlocked behind the waiting retry")
		}
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("B never completed after the Reconfigure")
		}
		if tm.Params() != p {
			t.Errorf("params = %+v, want %+v", tm.Params(), p)
		}
		tm.Atomic(a, func(tx *Tx) {
			if got := tx.Load(x); got != 8 {
				t.Errorf("x = %d, want 8", got)
			}
		})
	})
}

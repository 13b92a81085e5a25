package core

import "testing"

// TestCommitTimestampsDense: a lone descriptor's update commits take
// consecutive timestamps from the shared counter, starting at 1, and a
// read-only commit reports none. Uniqueness across descriptors is checked
// by the serializability suites, which reject a duplicate timestamp.
func TestCommitTimestampsDense(t *testing.T) {
	bothDesigns(t, func(t *testing.T, d Design) {
		tm, _ := newTestTM(t, d, nil)
		tx := tm.NewTx()
		var a uint64
		tm.Atomic(tx, func(tx *Tx) { a = tx.Alloc(1); tx.Store(a, 0) })
		last := tx.LastCommitTS()
		if last != 1 {
			t.Fatalf("first commit ts = %d, want 1", last)
		}
		for i := 0; i < 100; i++ {
			tm.Atomic(tx, func(tx *Tx) { tx.Store(a, uint64(i)) })
			ts := tx.LastCommitTS()
			if ts != last+1 {
				t.Fatalf("commit %d: ts = %d, want %d", i, ts, last+1)
			}
			last = ts
		}
		if got := tm.ClockValue(); got != last {
			t.Errorf("clock = %d, want the last commit's ts %d", got, last)
		}
		tm.AtomicRO(tx, func(tx *Tx) { _ = tx.Load(a) })
		if ts := tx.LastCommitTS(); ts != 0 {
			t.Errorf("read-only commit reported ts %d, want 0", ts)
		}
	})
}

// TestBankInvariantClockStrategies: the bank invariant holds on each design
// under the commit clock, with YieldEvery interleaving the commits.
func TestBankInvariantClockStrategies(t *testing.T) {
	designsAndClock(t, func(t *testing.T, d Design) {
		tm, _ := newTestTM(t, d, func(c *Config) { c.YieldEvery = 8 })
		runBankStress(t, tm, 4, 300)
	})
}

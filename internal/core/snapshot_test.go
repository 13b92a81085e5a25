package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"tinystm/internal/txn"
)

// newSnapTM builds a TM with an 8-shard MVCC sidecar attached.
func newSnapTM(t testing.TB, d Design, over func(*Config)) *TM {
	t.Helper()
	tm, _ := newTestTM(t, d, func(c *Config) {
		c.Snapshots = true
		c.SnapshotBudget = 64
		if over != nil {
			over(c)
		}
	})
	return withSidecarShards(tm, 8)
}

func TestSnapshotReadsLiveWord(t *testing.T) {
	bothDesigns(t, func(t *testing.T, d Design) {
		tm := newSnapTM(t, d, nil)
		tx := tm.NewTx()
		var a uint64
		tm.Atomic(tx, func(tx *Tx) {
			a = tx.Alloc(4)
			tx.Store(a, 10)
			tx.Store(a+1, 20)
		})
		var v0, v1 uint64
		tm.AtomicSnap(tx, func(tx *Tx) {
			v0, v1 = tx.Load(a), tx.Load(a+1)
		})
		if v0 != 10 || v1 != 20 {
			t.Fatalf("snapshot read (%d, %d), want (10, 20)", v0, v1)
		}
		st := tm.Stats()
		if st.SnapshotLiveReads == 0 {
			t.Fatal("live-word snapshot reads not counted")
		}
		if st.SnapshotVersionReads != 0 {
			t.Fatalf("%d sidecar reads with no concurrent writer", st.SnapshotVersionReads)
		}
	})
}

// TestSnapshotIsolatedFromWriter pins the core guarantee white-box: a
// snapshot begun before a writer's commit keeps reading the superseded
// values from the sidecar, with no abort.
func TestSnapshotIsolatedFromWriter(t *testing.T) {
	bothDesigns(t, func(t *testing.T, d Design) {
		tm := newSnapTM(t, d, nil)
		w := tm.NewTx()
		var a uint64
		tm.Atomic(w, func(tx *Tx) {
			a = tx.Alloc(2)
			tx.Store(a, 1)
			tx.Store(a+1, 2)
		})

		r := tm.NewTx()
		r.BeginSnap()
		if got := r.Load(a); got != 1 {
			t.Fatalf("pre-overwrite snapshot read %d, want 1", got)
		}
		// A writer commits new values mid-snapshot.
		tm.Atomic(w, func(tx *Tx) {
			tx.Store(a, 100)
			tx.Store(a+1, 200)
		})
		// The snapshot still sees the old values — now via the sidecar.
		if got := r.Load(a); got != 1 {
			t.Fatalf("post-overwrite snapshot read %d, want 1", got)
		}
		if got := r.Load(a + 1); got != 2 {
			t.Fatalf("post-overwrite snapshot read %d, want 2", got)
		}
		if !r.Commit() {
			t.Fatal("snapshot commit failed")
		}
		st := tm.Stats()
		if st.SnapshotVersionReads == 0 {
			t.Fatal("sidecar-served snapshot reads not counted")
		}
		if st.VersionsPublished == 0 {
			t.Fatal("writer commit published no versions")
		}
		if st.Aborts != 0 {
			t.Fatalf("%d aborts in a conflict-free snapshot scenario", st.Aborts)
		}
		// A fresh snapshot sees the new values from the live words.
		var now0 uint64
		tm.AtomicSnap(r, func(tx *Tx) { now0 = tx.Load(a) })
		if now0 != 100 {
			t.Fatalf("fresh snapshot read %d, want 100", now0)
		}
	})
}

func TestSnapshotTooOldRetries(t *testing.T) {
	tm := withSidecarShards(newSnapTM(t, WriteBack, func(c *Config) {
		c.SnapshotBudget = 1 // trim aggressively
	}), 1)
	w := tm.NewTx()
	var a uint64
	tm.Atomic(w, func(tx *Tx) {
		a = tx.Alloc(8)
		for i := uint64(0); i < 8; i++ {
			tx.Store(a+i, i)
		}
	})

	r := tm.NewTx()
	r.BeginSnap()
	_ = r.Load(a)
	// Overwrite every word repeatedly: the one-entry budget trims the
	// versions r's snapshot needs, raising the horizon past it. No
	// snapshot is pinning-exempt here because the hard cap (4*budget=4)
	// is tiny.
	for round := uint64(0); round < 8; round++ {
		tm.Atomic(w, func(tx *Tx) {
			for i := uint64(0); i < 8; i++ {
				tx.Store(a+i, 100*round+i)
			}
		})
	}
	aborted := !attempt(func() {
		for i := uint64(0); i < 8; i++ {
			_ = r.Load(a + i)
		}
	})
	if !aborted {
		// The spin budget may have served some reads; only a genuinely
		// trimmed-away version forces the abort. With budget 1 and 8
		// overwritten words this must have aborted.
		t.Fatal("stale snapshot survived aggressive trimming")
	}
	st := tm.Stats()
	if st.AbortsByKind[txn.AbortSnapshotTooOld] == 0 {
		t.Fatal("abort not classified snapshot-too-old")
	}
	tooOld, _, _ := tm.SnapshotCounts()
	if tooOld == 0 {
		t.Fatal("aggregate too-old counter did not advance")
	}
	// AtomicSnap retries transparently and lands on a fresh snapshot.
	var sum uint64
	tm.AtomicSnap(r, func(tx *Tx) {
		sum = 0
		for i := uint64(0); i < 8; i++ {
			sum += tx.Load(a + i)
		}
	})
	if want := uint64(700*8 + 28); sum != want {
		t.Fatalf("post-retry sum %d, want %d", sum, want)
	}
}

func TestSnapshotUpgradeOnWrite(t *testing.T) {
	tm := newSnapTM(t, WriteBack, nil)
	tx := tm.NewTx()
	var a uint64
	tm.Atomic(tx, func(tx *Tx) { a = tx.Alloc(1); tx.Store(a, 5) })
	tm.AtomicSnap(tx, func(tx *Tx) {
		v := tx.Load(a)
		//stm:allow-write deliberate: the write IS the snapshot-upgrade under test
		tx.Store(a, v+1) // snapshot mode cannot write: upgrade
	})
	var got uint64
	tm.AtomicSnap(tx, func(tx *Tx) { got = tx.Load(a) })
	if got != 6 {
		t.Fatalf("value %d after upgraded write, want 6", got)
	}
	if k := tm.Stats().AbortsByKind[txn.AbortUpgrade]; k == 0 {
		t.Fatal("upgrade abort not recorded")
	}
}

func TestAtomicSnapFallsBackWithoutSidecar(t *testing.T) {
	tm, _ := newTestTM(t, WriteBack, nil)
	if tm.SnapshotsEnabled() {
		t.Fatal("snapshots unexpectedly enabled")
	}
	tx := tm.NewTx()
	var a uint64
	tm.Atomic(tx, func(tx *Tx) { a = tx.Alloc(1); tx.Store(a, 7) })
	var got uint64
	tm.AtomicSnap(tx, func(tx *Tx) { got = tx.Load(a) })
	if got != 7 {
		t.Fatalf("fallback read %d, want 7", got)
	}
	if got := tm.VersionBudget(); got != 0 {
		t.Fatalf("VersionBudget = %d with snapshots disabled, want 0", got)
	}
}

func TestVersionBudgetKnob(t *testing.T) {
	tm := newSnapTM(t, WriteBack, nil)
	if got := tm.VersionBudget(); got != 64 {
		t.Fatalf("VersionBudget = %d, want 64", got)
	}
}

// TestReleaseDetachesSnapshotHorizon is the leak regression for
// Tx.Release: descriptors cycled through snapshot transactions (including
// abnormal unwinds) and released must leave no registration behind, so
// sidecar trimming keeps advancing and retained versions stay bounded.
func TestReleaseDetachesSnapshotHorizon(t *testing.T) {
	tm := withSidecarShards(newSnapTM(t, WriteBack, func(c *Config) {
		c.SnapshotBudget = 8
	}), 1)
	w := tm.NewTx()
	var a uint64
	tm.Atomic(w, func(tx *Tx) { a = tx.Alloc(4); tx.Store(a, 0) })

	for i := 0; i < 10000; i++ {
		tx := tm.NewTx()
		tm.AtomicSnap(tx, func(tx *Tx) { _ = tx.Load(a) })
		if i%3 == 0 {
			// Abnormal unwind: a foreign panic mid-snapshot must also
			// leave no registration (runBody's recovery path).
			func() {
				defer func() { _ = recover() }()
				tm.AtomicSnap(tx, func(tx *Tx) { panic("boom") })
			}()
		}
		tx.Release()
		// Writers churn versions the whole time so trimming has work.
		tm.Atomic(w, func(tx *Tx) { tx.Store(a, uint64(i)); tx.Store(a+1, uint64(i)) })
	}
	if n := tm.ActiveSnapshots(); n != 0 {
		t.Fatalf("%d snapshot registrations leaked across release cycles", n)
	}
	// With no stale registration pinning the horizon, publications made
	// while one FRESH snapshot is registered (publishers skip retention
	// entirely when nothing is registered) trim the backlog down to the
	// budget: only the handful of versions superseded after the fresh
	// snapshot's start may be pinned above it.
	r := tm.NewTx()
	r.BeginSnap()
	for i := uint64(0); i < 4; i++ {
		tm.Atomic(w, func(tx *Tx) { tx.Store(a, i); tx.Store(a+2, i) })
	}
	if !r.Commit() {
		t.Fatal("fresh snapshot commit failed")
	}
	r.Release()
	if got := tm.RetainedVersions(); got > 8+8 {
		t.Fatalf("retained %d versions (budget 8): a stale registration pinned the horizon", got)
	}
}

// TestSnapshotOpacityModelCheck is the model-based opacity checker:
// concurrent writers apply a deterministic serial history to a small
// key table (each update transaction reads a sequence register, claims
// the next index i, and sets slot i%K to i), while snapshot readers
// assert that every observed state equals the unique state after some
// prefix of that history: seq == p implies slot k holds the largest
// i <= p with i%K == k. Any torn, stale-mixed or non-prefix state fails.
// Runs under both designs; run with -race.
func TestSnapshotOpacityModelCheck(t *testing.T) {
	const (
		K        = 8 // key slots
		writers  = 4 //
		commits  = 300
		scanners = 2
	)
	designsAndClock(t, func(t *testing.T, d Design) {
		tm, _ := newTestTM(t, d, func(c *Config) {
			c.Snapshots = true
			c.SnapshotBudget = 4096 // ample: the checker wants zero too-old noise
			c.YieldEvery = 8        // interleave on few-core hosts
		})
		withSidecarShards(tm, 4)
		setup := tm.NewTx()
		var base uint64 // base+0 = seq register, base+1+k = slot k
		tm.Atomic(setup, func(tx *Tx) {
			base = tx.Alloc(1 + K)
			tx.Store(base, 0)
			for k := uint64(0); k < K; k++ {
				tx.Store(base+1+k, 0)
			}
		})
		setup.Release()

		var wg sync.WaitGroup
		var produced atomic.Uint64
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				tx := tm.NewTx()
				defer tx.Release()
				for produced.Load() < commits {
					tm.Atomic(tx, func(tx *Tx) {
						i := tx.Load(base) + 1
						tx.Store(base, i)
						tx.Store(base+1+(i%K), i)
					})
					produced.Add(1)
				}
			}()
		}

		var stop atomic.Bool
		var scans atomic.Uint64
		for s := 0; s < scanners; s++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				tx := tm.NewTx()
				defer tx.Release()
				var state [1 + K]uint64
				for !stop.Load() {
					tm.AtomicSnap(tx, func(tx *Tx) {
						for j := uint64(0); j < 1+K; j++ {
							state[j] = tx.Load(base + j)
						}
					})
					p := state[0]
					for k := uint64(0); k < K; k++ {
						// Model: largest i in [1, p] with i%K == k (zero
						// when no such commit happened yet).
						var want uint64
						if p >= k {
							if c := p - (p-k)%K; c >= 1 {
								want = c
							}
						}
						if state[1+k] != want {
							t.Errorf("%v: snapshot at seq %d: slot %d = %d, want %d (state %v)",
								d, p, k, state[1+k], want, state)
							stop.Store(true)
							return
						}
					}
					scans.Add(1)
					runtime.Gosched()
				}
			}()
		}

		// Writers finish AND at least one concurrent scan completed, then
		// scanners stop (on a busy host the writers can burn through
		// their commits before a scanner is ever scheduled).
		done := make(chan struct{})
		go func() { defer close(done); wg.Wait() }()
		go func() {
			for produced.Load() < commits || scans.Load() == 0 {
				runtime.Gosched()
			}
			stop.Store(true)
		}()
		<-done
		if scans.Load() == 0 {
			t.Fatal("no snapshot scans completed")
		}
		// Final state check against the sequential model.
		final := tm.NewTx()
		var seq uint64
		tm.AtomicSnap(final, func(tx *Tx) { seq = tx.Load(base) })
		if seq < commits {
			t.Fatalf("sequence register %d after %d produced commits", seq, produced.Load())
		}
	})
}

package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tinystm/internal/rng"
)

// restartsSince returns the snapshot restarts by cause since before.
func restartsSince(tm *TM, before [NSnapRestarts]uint64) (d [NSnapRestarts]uint64) {
	now := tm.SnapshotRestarts()
	for c := range d {
		d[c] = now[c] - before[c]
	}
	return d
}

// A move keeps every written record comparable with later snapshots. On
// one stripe, a's record climbs to the clock under a held snapshot; after
// the move, a new snapshot sees a neighbour commit move the stripe past its
// start and then reads a: the record is below the start, so the live value
// serves it. A move that rewound the clock left the record above every new
// start with no entry behind it, and the read restarted on a miss.
func TestSnapshotReadsLiveAfterMove(t *testing.T) {
	bothDesigns(t, func(t *testing.T, d Design) {
		tm := newSnapTM(t, d, func(c *Config) { c.Locks = 1 })
		tx, n := tm.NewTx(), tm.NewTx()
		var a uint64
		tm.Atomic(tx, func(tx *Tx) { a = tx.Alloc(2) })
		whileRegistered(t, tm, true, func() {
			for i := uint64(1); i <= 50; i++ {
				tm.Atomic(tx, func(tx *Tx) { tx.Store(a, i) })
			}
		})
		if rec := tm.mvcc.Written(a); rec != tx.LastCommitTS() {
			t.Fatalf("a's record = %d, want its last versioned write %d", rec, tx.LastCommitTS())
		}
		if err := tm.Reconfigure(Params{Locks: 1, Shifts: 0, Hier: 1}); err != nil {
			t.Fatalf("Reconfigure: %v", err)
		}
		before := tm.SnapshotRestarts()
		tx.BeginSnap()
		tm.Atomic(n, func(n *Tx) { n.Store(a+1, 7) })
		var got uint64
		if !attempt(func() { got = tx.Load(a) }) {
			t.Fatalf("the snapshot read of a restarted; restarts (trimmed, miss, held) = %v", restartsSince(tm, before))
		}
		if !tx.Commit() {
			t.Fatal("the snapshot failed to commit")
		}
		if got != 50 {
			t.Errorf("snapshot read a = %d, want 50", got)
		}
	})
}

// Scanners run full snapshot scans of a bank while two writers transfer
// between its accounts and the geometry moves every 2 ms. No scan may
// restart on a miss: every record stays below the starts of the snapshots
// after a move. Trimmed and held restarts depend on scheduling and are
// only reported.
func TestScansNeverMissAcrossMoves(t *testing.T) {
	const (
		accounts = 256
		initial  = 100
		moves    = 50
	)
	bothDesigns(t, func(t *testing.T, d Design) {
		tm := newSnapTM(t, d, func(c *Config) { c.Locks = 1 << 4 })
		setup := tm.NewTx()
		var base uint64
		tm.Atomic(setup, func(tx *Tx) {
			base = tx.Alloc(accounts)
			for i := uint64(0); i < accounts; i++ {
				tx.Store(base+i, initial)
			}
		})
		before := tm.SnapshotRestarts()
		var stop atomic.Bool
		var scans atomic.Uint64
		var wg sync.WaitGroup
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				r := rng.NewThread(7, id)
				tx := tm.NewTx()
				defer tx.Release()
				for !stop.Load() {
					from, to := base+uint64(r.Intn(accounts)), base+uint64(r.Intn(accounts))
					tm.Atomic(tx, func(tx *Tx) {
						if f := tx.Load(from); f > 0 {
							tx.Store(from, f-1)
							tx.Store(to, tx.Load(to)+1)
						}
					})
				}
			}(w)
		}
		for s := 0; s < 2; s++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				tx := tm.NewTx()
				defer tx.Release()
				for !stop.Load() {
					var sum uint64
					tm.AtomicSnap(tx, func(tx *Tx) {
						sum = 0
						for i := uint64(0); i < accounts; i++ {
							sum += tx.Load(base + i)
						}
					})
					if sum != accounts*initial {
						t.Errorf("torn scan: sum = %d, want %d", sum, accounts*initial)
					}
					scans.Add(1)
				}
			}()
		}
		geometries := []Params{
			{Locks: 1 << 4, Shifts: 0, Hier: 1},
			{Locks: 1 << 6, Shifts: 1, Hier: 4},
			{Locks: 1, Shifts: 0, Hier: 1},
			{Locks: 1 << 8, Shifts: 2, Hier: 16},
		}
		for i := 0; i < moves; i++ {
			time.Sleep(2 * time.Millisecond)
			if err := tm.Reconfigure(geometries[i%len(geometries)]); err != nil {
				t.Fatalf("Reconfigure: %v", err)
			}
		}
		stop.Store(true)
		wg.Wait()
		st := tm.Stats()
		if st.RollOvers != 0 {
			t.Fatalf("%d roll-overs: the test needs the clock kept", st.RollOvers)
		}
		if st.Reconfigs != moves {
			t.Errorf("reconfigs = %d, want %d", st.Reconfigs, moves)
		}
		r := restartsSince(tm, before)
		t.Logf("%d scans over %d moves; restarts: trimmed %d, miss %d, held %d",
			scans.Load(), moves, r[RestartTrimmed], r[RestartMiss], r[RestartHeld])
		if r[RestartMiss] != 0 {
			t.Errorf("%d scans restarted on a miss, want 0", r[RestartMiss])
		}
	})
}

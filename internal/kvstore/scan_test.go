package kvstore

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"tinystm/internal/core"
	"tinystm/internal/mem"
	"tinystm/internal/rng"
	"tinystm/internal/txn"
)

func newSnapTM(t testing.TB, words int) *core.TM {
	t.Helper()
	return core.MustNew(core.Config{
		Space:          mem.NewSpace(words),
		Snapshots:      true,
		SnapshotBudget: 4096,
	})
}

func TestScanReturnsWholeTable(t *testing.T) {
	for _, snap := range []bool{false, true} {
		name := "classic-ro"
		if snap {
			name = "snapshot"
		}
		t.Run(name, func(t *testing.T) {
			var tm *core.TM
			if snap {
				tm = newSnapTM(t, 1<<20)
			} else {
				tm = newTM(t, core.WriteBack, 1<<20)
			}
			s := NewStore[*core.Tx](tm, 4, 4)
			defer s.Close()
			const n = 500
			for k := uint64(0); k < n; k++ {
				s.Put(k, k*3)
			}
			before := tm.Stats().Commits
			pairs, total := s.Scan(0)
			if total != n || len(pairs) != n {
				t.Fatalf("Scan = %d pairs, total %d, want %d", len(pairs), total, n)
			}
			// A scan is ONE transaction: a snapshot, or without a sidecar
			// one whole-table read-only transaction.
			if got := tm.Stats().Commits - before; got != 1 {
				t.Fatalf("Scan ran %d transactions, want 1 (snapshots=%v)", got, snap)
			}
			seen := make(map[uint64]uint64, n)
			for _, kv := range pairs {
				seen[kv.Key] = kv.Val
			}
			for k := uint64(0); k < n; k++ {
				if seen[k] != k*3 {
					t.Fatalf("key %d = %d, want %d", k, seen[k], k*3)
				}
			}
			// A limited scan truncates pairs but still counts everything.
			pairs, total = s.Scan(10)
			if len(pairs) != 10 || total != n {
				t.Fatalf("Scan(10) = %d pairs, total %d, want 10, %d", len(pairs), total, n)
			}
		})
	}
}

// TestCheckpointScanIsScan: Scan and CheckpointScan are one walk, so on a
// quiet store CheckpointScan returns exactly Scan(0)'s pairs, in the same
// order, taken at the position the clock stands at.
func TestCheckpointScanIsScan(t *testing.T) {
	tm := newSnapTM(t, 1<<20)
	s := NewStore[*core.Tx](tm, 4, 4)
	defer s.Close()
	for n := range 2 {
		pairs, total := s.Scan(0)
		ck, epoch, ts := s.CheckpointScan()
		if !slices.Equal(ck, pairs) || uint64(len(ck)) != total {
			t.Fatalf("CheckpointScan = %d pairs, Scan(0) = %d pairs of total %d; want the same pairs", len(ck), len(pairs), total)
		}
		if epoch != tm.ClockEpoch() || ts != tm.ClockValue() {
			t.Fatalf("CheckpointScan at (%d, %d), want the clock's (%d, %d)", epoch, ts, tm.ClockEpoch(), tm.ClockValue())
		}
		if n == 0 {
			for k := uint64(0); k < 500; k++ {
				s.Put(k, k*7)
			}
			deleteKey(s, 5)
		}
	}
}

// TestScanWaitFreeUnderWriters pins the tentpole property end to end at
// the store layer: full-table scans running against concurrent writers
// complete without a single read-validation abort when the MVCC sidecar
// is on — every scan observes one consistent snapshot (sum conservation)
// and the only tolerated abort kind is a bounded snapshot-too-old retry.
func TestScanWaitFreeUnderWriters(t *testing.T) {
	tm := newSnapTM(t, 1<<20)
	s := NewStore[*core.Tx](tm, 4, 16)
	defer s.Close()
	const keys = 256
	// Balance: total value across keys is invariant under the writers'
	// transfers, so any consistent snapshot sums to the same value.
	for k := uint64(0); k < keys; k++ {
		s.Put(k, 100)
	}
	const wantSum = keys * 100

	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			tx := tm.NewTx()
			defer tx.Release()
			x := seed
			for !stop.Load() {
				x = x*6364136223846793005 + 1
				from, to := (x>>8)%keys, (x>>40)%keys
				if from == to {
					// A self-transfer would apply +1 net (tv was read
					// before the first Put), breaking the invariant.
					continue
				}
				tm.Atomic(tx, func(tx *core.Tx) {
					fv, _ := s.Map().Get(tx, from)
					if fv == 0 {
						return
					}
					tv, _ := s.Map().Get(tx, to)
					s.Map().Put(tx, from, fv-1)
					s.Map().Put(tx, to, tv+1)
				})
			}
		}(uint64(w + 1))
	}

	// Scans on a dedicated descriptor so its abort counters are
	// attributable (writers legitimately rack up conflict/extension
	// aborts of their own).
	scanTx := tm.NewTx()
	for i := 0; i < 50; i++ {
		var sum, total uint64
		tm.AtomicSnap(scanTx, func(tx *core.Tx) {
			sum, total = 0, 0
			s.Map().Range(tx, func(_, v uint64) bool {
				total++
				sum += v
				return true
			})
		})
		if total != keys {
			t.Fatalf("scan %d walked %d keys, want %d", i, total, keys)
		}
		if sum != wantSum {
			t.Fatalf("scan %d: inconsistent snapshot, sum %d want %d", i, sum, wantSum)
		}
		// The Store.Scan path must hold the same invariant.
		pairs, n := s.Scan(0)
		if n != keys {
			t.Fatalf("Store.Scan %d walked %d keys, want %d", i, n, keys)
		}
		sum = 0
		for _, kv := range pairs {
			sum += kv.Val
		}
		if sum != wantSum {
			t.Fatalf("Store.Scan %d: inconsistent snapshot, sum %d want %d", i, sum, wantSum)
		}
	}
	stop.Store(true)
	wg.Wait()
	// The scan descriptor may only ever abort snapshot-too-old (bounded
	// retries); the validation/extension aborts of a classic read-only
	// scan must be zero.
	st := scanTx.TxStats()
	for k, n := range st.AbortsByKind {
		if n != 0 && txn.AbortKind(k) != txn.AbortSnapshotTooOld {
			t.Fatalf("scan descriptor aborted %d times with kind %v", n, txn.AbortKind(k))
		}
	}
	scanTx.Release()
}

// TestApplyAllGetSnapshot checks the batch read fast path sees one
// consistent snapshot and that mixed batches still work.
func TestApplyAllGetSnapshot(t *testing.T) {
	tm := newSnapTM(t, 1<<20)
	s := NewStore[*core.Tx](tm, 2, 4)
	defer s.Close()
	s.Put(1, 10)
	s.Put(2, 20)
	res := s.Apply([]Op{{Kind: OpGet, Key: 1}, {Kind: OpGet, Key: 2}, {Kind: OpGet, Key: 3}})
	if !res[0].Found || res[0].Val != 10 || !res[1].Found || res[1].Val != 20 || res[2].Found {
		t.Fatalf("all-Get batch results %+v", res)
	}
	st := tm.Stats()
	if st.SnapshotLiveReads == 0 {
		t.Fatal("all-Get batch did not run in snapshot mode")
	}
	res = s.Apply([]Op{{Kind: OpAdd, Key: 1, Val: 5}, {Kind: OpGet, Key: 1}})
	if res[1].Val != 15 {
		t.Fatalf("mixed batch read %d, want 15", res[1].Val)
	}
}

// TestLenMatchesRangeUnderWriters: a full Scan's total is its own
// snapshot's count, the pairs it returns, while writers insert and delete
// keys (and grow shards) around it.
func TestLenMatchesRangeUnderWriters(t *testing.T) {
	tm := newSnapTM(t, 1<<20)
	s := NewStore[*core.Tx](tm, 4, 4)
	defer s.Close()
	const keys = 512
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			r := rng.New(seed)
			for !stop.Load() {
				if k := r.Uint64n(keys); r.Uint64n(2) == 0 {
					s.Put(k, k)
				} else {
					deleteKey(s, k)
				}
			}
		}(uint64(w + 1))
	}
	for i := 0; i < 300; i++ {
		if pairs, total := s.Scan(0); uint64(len(pairs)) != total {
			stop.Store(true)
			wg.Wait()
			t.Fatalf("Scan(0) returned %d pairs with total %d", len(pairs), total)
		}
	}
	stop.Store(true)
	wg.Wait()
}

// TestScanReadsWhatItReturns: a limited scan touches O(limit) words, not
// O(table). Counted with the snapshot read counters on a quiet store, it
// reads at most three words per returned pair, the header and bucket words
// of the shards it entered, and a word per shard to spare; and it returns
// the same first pairs a full scan does, in both execution modes.
func TestScanReadsWhatItReturns(t *testing.T) {
	const shards, keys = 16, 16384
	snapTM := newSnapTM(t, 1<<20)
	snap := NewStore[*core.Tx](snapTM, shards, 64)
	defer snap.Close()
	classic := NewStore[*core.Tx](newTM(t, core.WriteBack, 1<<20), shards, 64)
	defer classic.Close()
	for k := uint64(0); k < keys; k++ {
		snap.Put(k, k^0x5a)
		classic.Put(k, k^0x5a)
	}
	// Shard sizes, to know which shards a scan of n pairs must enter.
	var counts, buckets [shards]uint64
	tx := snapTM.NewTx()
	snapTM.AtomicRO(tx, func(tx *core.Tx) {
		for sh := range counts {
			counts[sh], buckets[sh] = snap.Map().count(uint64(sh)), snap.Map().buckets(tx, uint64(sh))
		}
	})
	tx.Release()
	reads := func() uint64 {
		st := snapTM.Stats()
		return st.SnapshotLiveReads + st.SnapshotVersionReads
	}
	for _, s := range []*Store[*core.Tx]{snap, classic} {
		full, total := s.Scan(0)
		if total != keys || len(full) != keys {
			t.Fatalf("Scan(0) = %d pairs, total %d, want %d", len(full), total, keys)
		}
		for _, limit := range []int{1, 7, 1024, 5000, keys + 1} {
			before := reads()
			pairs, total := s.Scan(limit)
			read := reads() - before
			want := min(limit, keys)
			if total != keys || len(pairs) != want || !slices.Equal(pairs, full[:want]) {
				t.Fatalf("Scan(%d) = %d pairs, total %d; want the first %d of the full scan, total %d",
					limit, len(pairs), total, want, keys)
			}
			if s != snap {
				continue
			}
			bound := uint64(3*want) + shards
			for sh, seen := 0, uint64(0); sh < shards && seen < uint64(want); sh++ {
				bound += 2 + buckets[sh]
				seen += counts[sh]
			}
			if read > bound {
				t.Errorf("Scan(%d) made %d snapshot reads, want <= %d", limit, read, bound)
			}
		}
	}
}

package microbench

import (
	"sync/atomic"
	"testing"

	"tinystm/internal/core"
	"tinystm/internal/kvstore"
	"tinystm/internal/mem"
	"tinystm/internal/rng"
)

// Snapshot-sidecar cost benchmarks: the acceptance question is what
// version publication costs the paths that do NOT benefit from it. The
// KVGet pair bounds the single-key read overhead (one predictable branch
// in Load); the KVPut pair prices publication on the update commit path
// (pre-image capture + sidecar delivery — with no snapshot registered,
// one atomic store per written word); the Scan pair prices snapshot-mode
// execution itself against a classic read-only scan, single-threaded and
// uncontended.

func benchStore(b *testing.B, snapshots bool) *kvstore.Store[*core.Tx] {
	return benchStoreKeys(b, snapshots, 8, 4096)
}

func benchStoreKeys(b *testing.B, snapshots bool, shards, keys uint64) *kvstore.Store[*core.Tx] {
	b.Helper()
	tm := core.MustNew(core.Config{
		Space:     mem.NewSpace(1 << 20),
		Snapshots: snapshots,
	})
	s := kvstore.NewStore[*core.Tx](tm, shards, 64)
	for k := uint64(0); k < keys; k++ {
		s.Put(k, k)
	}
	return s
}

func benchKVGet(b *testing.B, snapshots bool) {
	s := benchStore(b, snapshots)
	defer s.Close()
	r := rng.New(7)
	b.ReportAllocs() // pinned at 0 by kvstore's TestSingleKeyOpsDoNotAllocate
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Get(r.Uint64n(4096))
	}
}

func BenchmarkKVGetSnapshotsOff(b *testing.B) { benchKVGet(b, false) }
func BenchmarkKVGetSnapshotsOn(b *testing.B)  { benchKVGet(b, true) }

// BenchmarkKVGetParallel runs random Gets from b.RunParallel's goroutines
// (one per -cpu) against one store: 65 536 preloaded keys, 2^16 locks,
// snapshots on. A read-only Get writes no shared STM word, so what the
// goroutines share is the store's own bookkeeping around the transaction;
// run it at -cpu 1,2 to see what a second borrower costs.
func BenchmarkKVGetParallel(b *testing.B) {
	const keys = 1 << 16
	tm := core.MustNew(core.Config{Space: mem.NewSpace(1 << 22), Locks: 1 << 16, Snapshots: true})
	s := kvstore.NewStore[*core.Tx](tm, 16, 64)
	defer s.Close()
	for lo := uint64(0); lo < keys; lo += 1024 {
		s.Apply(opBatch(kvstore.OpPut, lo, 1024))
	}
	var seed atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		r := rng.New(seed.Add(1))
		for pb.Next() {
			if _, ok := s.Get(r.Uint64n(keys)); !ok {
				b.Error("a preloaded key is missing")
				return
			}
		}
	})
}

func benchKVPut(b *testing.B, snapshots bool) {
	s := benchStore(b, snapshots)
	defer s.Close()
	r := rng.New(7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Put(r.Uint64n(4096), uint64(i))
	}
}

func BenchmarkKVPutSnapshotsOff(b *testing.B) { benchKVPut(b, false) }
func BenchmarkKVPutSnapshotsOn(b *testing.B)  { benchKVPut(b, true) }

// benchScan prices a full-table walk: Scan(0) returns every pair.
func benchScan(b *testing.B, snapshots bool) {
	s := benchStore(b, snapshots)
	defer s.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if pairs, _ := s.Scan(0); len(pairs) != 4096 {
			b.Fatalf("scan returned %d pairs", len(pairs))
		}
	}
}

func BenchmarkKVScanSnapshotsOff(b *testing.B) { benchScan(b, false) }
func BenchmarkKVScanSnapshotsOn(b *testing.B)  { benchScan(b, true) }

// BenchmarkKVScanLimit1k is the server's /scan?limit=1024 against the
// store: 1 024 pairs of a 16 384-key table, in snapshot mode.
func BenchmarkKVScanLimit1k(b *testing.B) {
	s := benchStoreKeys(b, true, 16, 16384)
	defer s.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if pairs, total := s.Scan(1024); len(pairs) != 1024 || total != 16384 {
			b.Fatalf("scan returned %d pairs of %d", len(pairs), total)
		}
	}
}

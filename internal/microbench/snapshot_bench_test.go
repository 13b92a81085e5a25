package microbench

import (
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
	b.Helper()
	tm := core.MustNew(core.Config{
		Space:     mem.NewSpace(1 << 20),
		Snapshots: snapshots,
	})
	s := kvstore.NewStore[*core.Tx](tm, 8, 64)
	for k := uint64(0); k < 4096; k++ {
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

func benchScan(b *testing.B, snapshots bool) {
	s := benchStore(b, snapshots)
	defer s.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, total := s.Scan(1); total != 4096 {
			b.Fatalf("scan walked %d keys", total)
		}
	}
}

func BenchmarkKVScanSnapshotsOff(b *testing.B) { benchScan(b, false) }
func BenchmarkKVScanSnapshotsOn(b *testing.B)  { benchScan(b, true) }

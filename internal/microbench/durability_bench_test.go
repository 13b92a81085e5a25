package microbench

import (
	"sync/atomic"
	"testing"

	"tinystm/internal/core"
	"tinystm/internal/kvstore"
	"tinystm/internal/mem"
	"tinystm/internal/rng"
	"tinystm/internal/txn"
	"tinystm/internal/wal"
)

// Durability ack-mode benchmarks: what a Put costs with no WAL at all
// (Off) and acked only after the group-commit fsync (Group). These run
// against the real filesystem (b.TempDir) so Group pays genuine fsyncs;
// the parallel variant is the honest one — group commit amortizes the
// fsync across concurrent committers, which a single-threaded loop cannot
// show. The ISSUE-6 acceptance number (group within 2x of off, parallel) comes
// from BenchmarkDurabilityPutParallel*.

type benchSink struct{ log *wal.Log }

func (s benchSink) WaitDurable(t txn.DurableTicket) error { return t.(*wal.Pending).Wait() }

// benchDurableStore builds a store in one of the two ack modes; mode is
// "off" or "group".
func benchDurableStore(b *testing.B, mode string) *kvstore.Store[*core.Tx] {
	b.Helper()
	tm := core.MustNew(core.Config{Space: mem.NewSpace(1 << 20)})
	s := kvstore.NewStore[*core.Tx](tm, 8, 64)
	if mode != "off" {
		l, err := wal.Open(wal.Config{Dir: b.TempDir(), FS: wal.OS})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() {
			tm.SetRedoHook(nil)
			l.Close()
		})
		if err := s.EnableDurability(benchSink{log: l}); err != nil {
			b.Fatal(err)
		}
		tm.SetRedoHook(func(epoch, ts uint64, ops []txn.RedoOp) txn.DurableTicket {
			return l.Append(epoch, ts, ops)
		})
	}
	for k := uint64(0); k < 4096; k++ {
		s.Put(k, k)
	}
	return s
}

func benchDurabilityPut(b *testing.B, mode string) {
	s := benchDurableStore(b, mode)
	defer s.Close()
	r := rng.New(7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Put(r.Uint64n(4096), uint64(i))
	}
}

func BenchmarkDurabilityPutOff(b *testing.B)   { benchDurabilityPut(b, "off") }
func BenchmarkDurabilityPutGroup(b *testing.B) { benchDurabilityPut(b, "group") }

func benchDurabilityPutParallel(b *testing.B, mode string) {
	s := benchDurableStore(b, mode)
	defer s.Close()
	var seed atomic.Uint64
	// Group commit's whole point is amortizing the fsync across concurrent
	// committers; a handful of workers can only form a handful-sized
	// batch. Oversubscribe well past GOMAXPROCS so the flusher sees
	// server-like batch widths.
	b.SetParallelism(256)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		r := rng.NewThread(7, int(seed.Add(1)))
		for pb.Next() {
			s.Put(r.Uint64n(4096), r.Uint64())
		}
	})
}

func BenchmarkDurabilityPutParallelOff(b *testing.B)   { benchDurabilityPutParallel(b, "off") }
func BenchmarkDurabilityPutParallelGroup(b *testing.B) { benchDurabilityPutParallel(b, "group") }

// BenchmarkCheckpoint64k is what one checkpoint costs the server beyond
// its disk writes, at write-wal's table size: scan 65 536 pairs out of the
// store in one snapshot, sort them, encode the file (onto a MemFS: the
// fsyncs are the disk's bill, not this code's). The server pays it every
// -checkpoint-every, beside the request path.
func BenchmarkCheckpoint64k(b *testing.B) {
	tm := core.MustNew(core.Config{Space: mem.NewSpace(1 << 22), Snapshots: true})
	s := kvstore.NewStore[*core.Tx](tm, 16, 64)
	defer s.Close()
	for k := uint64(0); k < 1<<16; k++ {
		s.Put(k, k)
	}
	fs := wal.NewMemFS()
	if err := fs.MkdirAll("wal"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pairs, epoch, ts := s.CheckpointScan()
		if len(pairs) != 1<<16 {
			b.Fatalf("CheckpointScan: %d pairs", len(pairs))
		}
		if err := wal.WriteCheckpoint(fs, "wal", 1, epoch, ts, pairs); err != nil {
			b.Fatal(err)
		}
	}
}

package microbench

import (
	"testing"
	"time"

	"tinystm/internal/core"
	"tinystm/internal/kvstore"
	"tinystm/internal/mem"
)

// Large-update cost: one ApplyInto batch of n fresh-key puts with
// snapshots on (stmkvd's default), the shape of a preload batch or a long
// /batch. Its commit publishes one birth per allocated word and one
// pre-image per pre-existing word written, so the cost per key must not
// grow with the batch; TestBatchInsertScalesLinearly guards that.

// batchInserter inserts n fresh keys with one ApplyInto and deletes them
// again, so every round inserts into the same, already grown table.
type batchInserter struct {
	s        *kvstore.Store[*core.Tx]
	ins, del []kvstore.Op
	res      []kvstore.OpResult
}

func newBatchInserter(d core.Design, n int) *batchInserter {
	tm := core.MustNew(core.Config{Space: mem.NewSpace(1 << 20), Design: d, Snapshots: true})
	bi := &batchInserter{
		s:   kvstore.NewStore[*core.Tx](tm, 16, 64),
		res: make([]kvstore.OpResult, n),
	}
	for k := uint64(0); k < uint64(n); k++ {
		bi.ins = append(bi.ins, kvstore.Op{Kind: kvstore.OpPut, Key: k, Val: k})
		bi.del = append(bi.del, kvstore.Op{Kind: kvstore.OpDelete, Key: k})
	}
	bi.insert() // grows the shard directories and warms the descriptors
	bi.remove()
	return bi
}

func (bi *batchInserter) insert() { bi.s.ApplyInto(bi.ins, bi.res) }
func (bi *batchInserter) remove() { bi.s.ApplyInto(bi.del, bi.res) }

func benchBatchInsert(b *testing.B, n int) {
	for _, d := range []core.Design{core.WriteBack, core.WriteThrough} {
		b.Run(d.String(), func(b *testing.B) {
			bi := newBatchInserter(d, n)
			defer bi.s.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bi.insert()
				b.StopTimer()
				bi.remove()
				b.StartTimer()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/key")
		})
	}
}

func BenchmarkKVBatchInsert64(b *testing.B)   { benchBatchInsert(b, 64) }
func BenchmarkKVBatchInsert1024(b *testing.B) { benchBatchInsert(b, 1024) }
func BenchmarkKVBatchInsert4096(b *testing.B) { benchBatchInsert(b, 4096) }

// TestBatchInsertScalesLinearly holds the per-key cost of a 4 096-key
// insert batch within 4x that of a 64-key one, in both designs. Linear
// publication reads about 1x (the 64-key batch spreads its fixed commit
// cost over fewer keys); a per-write scan of the allocation list reads
// far above 4x. Each side is the fastest of several rounds, which keeps a
// busy host's scheduling noise out of the ratio.
func TestBatchInsertScalesLinearly(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	perKey := func(d core.Design, n, rounds int) time.Duration {
		bi := newBatchInserter(d, n)
		defer bi.s.Close()
		best := time.Duration(1<<63 - 1)
		for r := 0; r < rounds; r++ {
			start := time.Now()
			bi.insert()
			best = min(best, time.Since(start))
			bi.remove()
		}
		return best / time.Duration(n)
	}
	for _, d := range []core.Design{core.WriteBack, core.WriteThrough} {
		small, large := perKey(d, 64, 64), perKey(d, 4096, 5)
		t.Logf("%v: %v/key at 64 keys, %v/key at 4096 (%.2fx)", d, small, large, float64(large)/float64(small))
		if large > 4*small {
			t.Errorf("%v: a 4096-key batch costs %v per key, over 4x the %v of a 64-key batch", d, large, small)
		}
	}
}

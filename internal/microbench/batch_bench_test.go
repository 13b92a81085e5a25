package microbench

import (
	"fmt"
	"math/bits"
	"sync"
	"testing"
	"time"

	"tinystm/internal/core"
	"tinystm/internal/kvstore"
	"tinystm/internal/mem"
	"tinystm/internal/obs"
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

// BenchmarkShardGrow grows a 1 024-bucket shard once an iteration. The
// store is filled up to its load factor untimed; the timed Put of one more
// key tips the shard, so ns/op is that Put and the one Map.Grow it sets
// off. freeze-ns/entry is the freeze the growth raises (TM.Quiesce with no
// attempt to drain, and the rehash), from the TM's FreezeNs histogram, per
// entry rehashed: the cost stated above core.TM.Quiesce.
func BenchmarkShardGrow(b *testing.B) {
	const full = 1024 * 5 // the keys a 1 024-bucket shard holds without growing
	fill := opBatch(kvstore.OpPut, 0, full)
	res := make([]kvstore.OpResult, full)
	var entries, freezeNs uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tm := core.MustNew(core.Config{Space: mem.NewSpace(1 << 18)})
		s := kvstore.NewStore[*core.Tx](tm, 1, 1024)
		s.ApplyInto(fill, res)
		o := obs.NewTMObs(nil)
		tm.SetObs(o)
		b.StartTimer()
		s.Put(full, full)
		b.StopTimer()
		if s.Grows() != 1 {
			b.Fatalf("%d growths, want 1", s.Grows())
		}
		s.Close()
		entries += full + 1
		freezeNs += o.FreezeNs.Snapshot().Sum
		b.StartTimer()
	}
	b.ReportMetric(float64(freezeNs)/float64(entries), "freeze-ns/entry")
}

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

// opBatch is n ops of one kind on the keys from lo on.
func opBatch(kind kvstore.OpKind, lo uint64, n int) []kvstore.Op {
	ops := make([]kvstore.Op, n)
	for i := range ops {
		ops[i] = kvstore.Op{Kind: kind, Key: lo + uint64(i), Val: lo + uint64(i)}
	}
	return ops
}

// disjoint is stmkvd's store after the bench's preload (65 536 keys,
// sixteen shards, snapshots on, write-back) with goroutines that each
// insert their own fresh keys in short transactional batches and then
// delete them again: writers that share no key.
type disjoint struct {
	tm *core.TM
	s  *kvstore.Store[*core.Tx]
	// ins[g] and del[g] are goroutine g's batches, on keys no other
	// goroutine's batches touch.
	ins, del [][][]kvstore.Op
}

const (
	disjointPreload = 1 << 16
	disjointBatch   = 16  // puts a batch: far below bulkOps, so each is a transaction
	disjointBatches = 512 // batches a goroutine inserts, and deletes, a round
)

func newDisjoint(locks uint64, goroutines int) *disjoint {
	tm := core.MustNew(core.Config{Space: mem.NewSpace(1 << 22), Locks: locks, Snapshots: true})
	d := &disjoint{tm: tm, s: kvstore.NewStore[*core.Tx](tm, 16, 64)}
	for lo := uint64(0); lo < disjointPreload; lo += 1024 {
		d.s.Apply(opBatch(kvstore.OpPut, lo, 1024))
	}
	for g := range goroutines {
		var ins, del [][]kvstore.Op
		for i := range disjointBatches {
			lo := disjointPreload + uint64((g*disjointBatches+i)*disjointBatch)
			ins = append(ins, opBatch(kvstore.OpPut, lo, disjointBatch))
			del = append(del, opBatch(kvstore.OpDelete, lo, disjointBatch))
		}
		d.ins, d.del = append(d.ins, ins), append(d.del, del)
	}
	d.round() // grows the shards the fresh keys tip, mints the carriers
	return d
}

// round runs every goroutine's inserts and then its deletes, all
// goroutines at once, and waits for them.
func (d *disjoint) round() {
	var wg sync.WaitGroup
	for g := range d.ins {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res := make([]kvstore.OpResult, disjointBatch)
			for _, ops := range d.ins[g] {
				d.s.ApplyInto(ops, res)
			}
			for _, ops := range d.del[g] {
				d.s.ApplyInto(ops, res)
			}
		}()
	}
	wg.Wait()
}

// abortsPerCommit runs rounds rounds and returns their aborts per commit.
func (d *disjoint) abortsPerCommit(rounds int) float64 {
	before := d.tm.Stats()
	for range rounds {
		d.round()
	}
	st := d.tm.Stats().Sub(before)
	return float64(st.Aborts) / float64(st.Commits)
}

// BenchmarkKVBatchDisjoint: one or two goroutines insert 512 batches of
// 16 fresh keys each, their own, and delete them again, into a table of
// 65 536 keys, at 2^16 locks (stmkvd's default) and at 2^22, where no two
// words of the space share a lock. No word of the table is common to two
// goroutines' batches but a bucket line both happen to insert into, so
// at 2^22 locks two goroutines' aborts per commit stay near 0. ns/key is
// the wall time per key inserted and deleted, over all goroutines.
func BenchmarkKVBatchDisjoint(b *testing.B) {
	for _, locks := range []uint64{1 << 16, 1 << 22} {
		for _, g := range []int{1, 2} {
			b.Run(fmt.Sprintf("locks=2^%d/g=%d", bits.TrailingZeros64(locks), g), func(b *testing.B) {
				d := newDisjoint(locks, g)
				defer d.s.Close()
				b.ResetTimer()
				abortRate := d.abortsPerCommit(b.N)
				b.StopTimer()
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*g*disjointBatches*disjointBatch), "ns/key")
				b.ReportMetric(abortRate, "aborts/commit")
			})
		}
	}
}

// TestDisjointBatchesShareNoWord: two goroutines whose batches insert and
// delete keys of their own, at 2^22 locks, abort less than once per ten
// commits. A batch that stored its shards' key counts in the table would
// collide with the other goroutine's on nearly every shard it touched.
func TestDisjointBatchesShareNoWord(t *testing.T) {
	if testing.Short() {
		t.Skip("two rounds of 2 048 batches")
	}
	d := newDisjoint(1<<22, 2)
	defer d.s.Close()
	rate := d.abortsPerCommit(2)
	t.Logf("two goroutines on disjoint keys: %.3f aborts per commit", rate)
	if rate >= 0.1 {
		t.Errorf("two goroutines on disjoint keys abort %.3f times per commit, want < 0.1", rate)
	}
}

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

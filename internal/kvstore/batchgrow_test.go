package kvstore

import (
	"testing"

	"tinystm/internal/core"
	"tinystm/internal/obs"
)

// A batch adds its COMMITTED attempt's net inserts to the shards' key
// counters and grows the shards that left over their load factor — no
// probe transactions after the batch, nothing carried over from an attempt
// that aborted. A
// growth is not a transaction: it rehashes behind the freeze barrier, so
// the batch's commit is the only commit, Grows counts the growths, and
// the TM's freeze histogram counts the barriers raised.

// keysOfShard returns n keys from start upwards that map to shard sh.
func keysOfShard(m *Map, sh, start uint64, n int) []uint64 {
	var keys []uint64
	for k := start; len(keys) < n; k++ {
		if m.Shard(k) == sh {
			keys = append(keys, k)
		}
	}
	return keys
}

// fillShard inserts keys through the Map, which never grows a directory,
// and counts them as Store would.
func fillShard(tm *core.TM, m *Map, keys []uint64) {
	tx := tm.NewTx()
	defer tx.Release()
	tm.Atomic(tx, func(tx *core.Tx) {
		for _, k := range keys {
			m.Put(tx, k, k)
		}
	})
	for _, k := range keys {
		m.addKeys(m.Shard(k), 1)
	}
}

// buckets reads shard s's directory length within tx.
func (m *Map) buckets(tx *core.Tx, s uint64) uint64 {
	return tx.Load(m.base + s*hdrWords + hdrNBkts)
}

func shardBuckets(tm *core.TM, m *Map) []uint64 {
	tx := tm.NewTx()
	defer tx.Release()
	b := make([]uint64, m.Shards())
	tm.AtomicRO(tx, func(tx *core.Tx) {
		for sh := range b {
			b[sh] = m.buckets(tx, uint64(sh))
		}
	})
	return b
}

// freezes returns how many times tm has raised its freeze barrier since
// o was attached.
func freezes(o *obs.TMObs) uint64 { return o.FreezeNs.Snapshot().Count }

// TestBatchGrowsEveryShardItTips: one batch whose inserts push two shards
// over the load factor (a Put on one, an Add on the other) grows both, and
// leaves the shard it only overwrote alone; the whole thing is the batch's
// one commit plus one growth freeze per tipped shard.
func TestBatchGrowsEveryShardItTips(t *testing.T) {
	tm := newTM(t, core.WriteBack, 1<<16)
	o := obs.NewTMObs(nil)
	tm.SetObs(o)
	s := NewStore[*core.Tx](tm, 4, 2)
	defer s.Close()
	m := s.Map()
	const full = 2 * loadFactor // a 2-bucket shard holds this many without asking to grow
	var fresh [3]uint64
	for sh := uint64(0); sh < 3; sh++ {
		keys := keysOfShard(m, sh, 0, full+1)
		fillShard(tm, m, keys[:full])
		fresh[sh] = keys[full]
	}
	overwritten := keysOfShard(m, 2, 0, 1)[0]

	before, grows0, freezes0 := tm.Stats(), s.Grows(), freezes(o)
	res := s.Apply([]Op{
		{Kind: OpPut, Key: fresh[0], Val: 1},
		{Kind: OpAdd, Key: fresh[1], Val: 1},
		{Kind: OpPut, Key: fresh[0], Val: 2}, // the same shard again: noted once
		{Kind: OpPut, Key: overwritten, Val: 3},
	})
	if !res[0].OK || res[1].Val != 1 || res[2].OK || res[3].OK {
		t.Fatalf("batch results %+v", res)
	}
	d := tm.Stats().Sub(before)
	if got := shardBuckets(tm, m); got[0] != 8 || got[1] != 8 || got[2] != 2 || got[3] != 2 {
		t.Fatalf("buckets per shard = %v, want [8 8 2 2]", got)
	}
	if d.Commits != 1 {
		t.Fatalf("%d commits for a batch that tipped two shards, want 1: the batch", d.Commits)
	}
	if g, f := s.Grows()-grows0, freezes(o)-freezes0; g != 2 || f != 2 {
		t.Fatalf("%d growths in %d freezes, want 2 in 2: one per tipped shard", g, f)
	}
}

// abortOnce hands s a carrier whose first update attempt runs the batch
// body and then aborts; between runs after the abort and before the body
// starts again. The free list is LIFO, so the store's next borrow, with no
// other operation in flight, takes this carrier. What the wrapper does
// depends on which run of the body this is: counting the runs is its
// point.
func abortOnce(s *Store[*core.Tx], between func()) (pending func() bool) {
	o := newBatchOp(s)
	body := o.body
	attempt := 0
	wrapped := func(tx *core.Tx) {
		attempt++
		if attempt == 2 && between != nil {
			b := between
			between = nil
			b()
		}
		body(tx)
		if attempt == 1 && between != nil {
			tx.Retry()
		}
	}
	o.body = wrapped
	s.recycle(o)
	return func() bool { return between != nil }
}

// TestBatchGrowthIsOfTheCommittedAttempt: the batch's first attempt tips
// shards 0 and 1 and aborts; before the retry, shard 0 loses keys, so the
// attempt that commits tips only shard 1. Shard 1 is grown once — it is
// filled so that a second growth would grow it again — and shard 0 costs
// not even a freeze that finds nothing to do.
func TestBatchGrowthIsOfTheCommittedAttempt(t *testing.T) {
	tm := newTM(t, core.WriteBack, 1<<16)
	o := obs.NewTMObs(nil)
	tm.SetObs(o)
	s := NewStore[*core.Tx](tm, 2, 2)
	defer s.Close()
	m := s.Map()
	keys0 := keysOfShard(m, 0, 0, 2*loadFactor+1)
	keys1 := keysOfShard(m, 1, 0, 8*loadFactor+2)
	fillShard(tm, m, keys0[:2*loadFactor])
	fillShard(tm, m, keys1[:8*loadFactor+1]) // over the factor even at 8 buckets

	pending := abortOnce(s, func() {
		deleteKey(s, keys0[0])
		deleteKey(s, keys0[1])
	})
	before, grows0, freezes0 := tm.Stats(), s.Grows(), freezes(o)
	res := s.Apply([]Op{
		{Kind: OpPut, Key: keys0[2*loadFactor], Val: 1},
		{Kind: OpPut, Key: keys1[8*loadFactor+1], Val: 1},
	})
	if pending() {
		t.Fatal("the batch committed on its first attempt: nothing was tested")
	}
	if !res[0].OK || !res[1].OK {
		t.Fatalf("batch results %+v", res)
	}
	d := tm.Stats().Sub(before)
	if got := shardBuckets(tm, m); got[0] != 2 || got[1] != 8 {
		t.Fatalf("buckets per shard = %v, want [2 8]: shard 1 grown once, shard 0 not at all", got)
	}
	if d.Commits != 2+1 { // two Deletes in between, the batch
		t.Fatalf("%d commits, want 3 (two deletes, the batch)", d.Commits)
	}
	if g, f := s.Grows()-grows0, freezes(o)-freezes0; g != 1 || f != 1 {
		t.Fatalf("%d growths in %d freezes, want 1 in 1: shard 1 only", g, f)
	}
	if d.Aborts == 0 {
		t.Fatal("no attempt aborted")
	}
}

// TestPreloadGrowsEachShardTwice: stmkvd's store shape, sixteen shards of
// 64 buckets, preloaded with 65 536 keys in 1 024-put batches, 4 096 keys a
// shard. Each shard grows 64 → 256 → 1 024 buckets: 32 growths, where
// doubling took 64. Grows counts exactly the growths, and the batches are
// the only commits. (The chains of 3-word nodes grew at four keys a
// bucket, the same 32 times for these keys; the ledger's keys 0…65 535
// put more than 4 096 in some shards and took 41.)
func TestPreloadGrowsEachShardTwice(t *testing.T) {
	const shards, perShard, batch = 16, 4096, 1024
	tm := newTM(t, core.WriteBack, 1<<20)
	s := NewStore[*core.Tx](tm, shards, 64)
	defer s.Close()
	m := s.Map()
	// The first 4 096 keys of every shard, in key order: four a bucket of
	// a 1 024-bucket directory, under the load factor of five, so no third
	// growth is due.
	var keys []uint64
	var n [shards]int
	for k := uint64(0); len(keys) < shards*perShard; k++ {
		if sh := m.Shard(k); n[sh] < perShard {
			n[sh]++
			keys = append(keys, k)
		}
	}
	before, grows0 := tm.Stats(), s.Grows()
	ops := make([]Op, batch)
	res := make([]OpResult, batch)
	for lo := 0; lo < len(keys); lo += batch {
		for i, k := range keys[lo : lo+batch] {
			ops[i] = Op{Kind: OpPut, Key: k, Val: k}
		}
		s.ApplyInto(ops, res)
	}
	if got := s.Grows() - grows0; got != 2*shards {
		t.Fatalf("Grows = %d after the preload, want %d: two per shard", got, 2*shards)
	}
	if d := tm.Stats().Sub(before); d.Commits != uint64(len(keys)/batch) {
		t.Fatalf("%d commits, want %d: the batches only", d.Commits, len(keys)/batch)
	}
	for sh, b := range shardBuckets(tm, m) {
		if b != 1024 {
			t.Fatalf("shard %d has %d buckets after the preload, want 1024", sh, b)
		}
	}
}

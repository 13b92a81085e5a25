package kvstore

import (
	"maps"
	"testing"

	"tinystm/internal/core"
	"tinystm/internal/mem"
	"tinystm/internal/obs"
	"tinystm/internal/rng"
	"tinystm/internal/wal"
)

// A batch of at least bulkOps updates runs irrevocably (core.TM.Irrevocable):
// one freeze for its run, one commit, and the same answers, log records,
// growths and recovery as a transactional batch.

// TestBulkBatchGrowsWhatItTips: a bulk batch that tips two shards has
// grown both when ApplyInto returns, each through Map.Grow: three
// freezes (the run, then one per tipped shard), one commit, Grows up by
// 2, and the shard it only overwrote keeps its directory.
func TestBulkBatchGrowsWhatItTips(t *testing.T) {
	for _, d := range []core.Design{core.WriteBack, core.WriteThrough} {
		t.Run(d.String(), func(t *testing.T) {
			tm := newTM(t, d, 1<<16)
			o := obs.NewTMObs(nil)
			tm.SetObs(o)
			s := NewStore[*core.Tx](tm, 4, 2)
			defer s.Close()
			m := s.Map()
			const full = 2 * loadFactor
			var fresh [3]uint64
			for sh := uint64(0); sh < 3; sh++ {
				keys := keysOfShard(m, sh, 0, full+1)
				fillShard(tm, m, keys[:full])
				fresh[sh] = keys[full]
			}
			overwritten := keysOfShard(m, 2, 0, 1)[0]
			ops := []Op{
				{Kind: OpPut, Key: fresh[0], Val: 1},
				{Kind: OpAdd, Key: fresh[1], Val: 1},
			}
			for len(ops) < bulkOps {
				ops = append(ops, Op{Kind: OpPut, Key: overwritten, Val: uint64(len(ops))})
			}

			before, grows0, freezes0 := tm.Stats(), s.Grows(), freezes(o)
			res := make([]OpResult, len(ops))
			if tk := s.ApplyInto(ops, res); tk != nil {
				t.Fatalf("ApplyInto returned a ticket on a store without durability")
			}
			if !res[0].OK || res[1].Val != 1 || res[2].OK {
				t.Fatalf("batch results %+v", res[:3])
			}
			delta := tm.Stats().Sub(before)
			if delta.Commits != 1 || delta.IrrevocableCommits != 1 {
				t.Fatalf("%d commits, %d irrevocable; want the batch's 1, irrevocable", delta.Commits, delta.IrrevocableCommits)
			}
			if got := shardBuckets(tm, m); got[0] != 8 || got[1] != 8 || got[2] != 2 || got[3] != 2 {
				t.Fatalf("buckets per shard = %v, want [8 8 2 2]", got)
			}
			if g, f := s.Grows()-grows0, freezes(o)-freezes0; g != 2 || f != 3 {
				t.Fatalf("%d growths in %d freezes, want 2 in 3: the run's, then one per tipped shard", g, f)
			}
			if v, ok := s.Get(overwritten); !ok || v != bulkOps-1 {
				t.Fatalf("Get(%d) = %d, %v; want the batch's last put, %d", overwritten, v, ok, bulkOps-1)
			}
		})
	}
}

// TestBulkBatchOutOfSpaceChangesNothing: a bulk batch that fills the
// arena panics with ErrSpaceExhausted like a transactional one, and the
// table reads as before it: the keys it overwrote keep their values, the
// keys it inserted are absent, and the space holds what it held.
func TestBulkBatchOutOfSpaceChangesNothing(t *testing.T) {
	for _, d := range []core.Design{core.WriteBack, core.WriteThrough} {
		t.Run(d.String(), func(t *testing.T) {
			sp := mem.NewSpace(1 << 12)
			tm := core.MustNew(core.Config{Space: sp, Design: d, Snapshots: true})
			s := NewStore[*core.Tx](tm, 4, 8)
			defer s.Close()
			for k := uint64(0); k < bulkOps; k++ {
				s.Put(k, k)
			}
			live, n := sp.LiveWords(), s.Len()
			ops := make([]Op, 0, 2048)
			for k := uint64(0); k < bulkOps; k++ {
				ops = append(ops, Op{Kind: OpPut, Key: k, Val: k + 1000})
			}
			for k := uint64(bulkOps); len(ops) < cap(ops); k++ {
				ops = append(ops, Op{Kind: OpPut, Key: k, Val: k})
			}
			func() {
				defer func() {
					if r := recover(); r != core.ErrSpaceExhausted {
						t.Fatalf("the batch panicked with %v, want ErrSpaceExhausted", r)
					}
				}()
				s.Apply(ops)
			}()
			if l, got := sp.LiveWords(), s.Len(); l != live || got != n {
				t.Fatalf("after the panic: %d live words, %d keys; want %d, %d", l, got, live, n)
			}
			for k := uint64(0); k < bulkOps; k++ {
				if v, ok := s.Get(k); !ok || v != k {
					t.Fatalf("Get(%d) = %d, %v after the panic; want %d", k, v, ok, k)
				}
			}
			if _, ok := s.Get(bulkOps); ok {
				t.Fatalf("key %d, inserted by the failed batch, is present", bulkOps)
			}
			s.Apply(ops[:bulkOps])
			if v, _ := s.Get(0); v != 1000 {
				t.Fatalf("Get(0) = %d after a bulk batch that fits, want 1000", v)
			}
		})
	}
}

// TestBulkBatchOutOfSpaceRestoresFreedSlot: a bulk batch that deletes a
// key and then fills the slot the delete freed stores that slot's key and
// value with an undo entry, so when the batch runs out of space the
// deleted key is back with its value. (An insert into a slot free when
// the batch began logs only the line's meta word; one into a slot the
// batch freed itself would otherwise leave the restored meta bit over the
// new key.)
func TestBulkBatchOutOfSpaceRestoresFreedSlot(t *testing.T) {
	for _, d := range []core.Design{core.WriteBack, core.WriteThrough} {
		t.Run(d.String(), func(t *testing.T) {
			sp := mem.NewSpace(1 << 12)
			tm := core.MustNew(core.Config{Space: sp, Design: d})
			s := NewStore[*core.Tx](tm, 4, 8)
			defer s.Close()
			bucket := func(k uint64) uint64 { return (hash(k) & 3) | (hash(k)>>2&7)<<2 }
			// victim is the first key of the first bucket to hold three:
			// slot 0 of a full head line, the first free slot once deleted.
			var victim uint64
			seen := map[uint64][]uint64{}
			for k := uint64(0); ; k++ {
				s.Put(k, k)
				b := bucket(k)
				if seen[b] = append(seen[b], k); len(seen[b]) == slots {
					victim = seen[b][0]
					break
				}
			}
			var fresh uint64
			for fresh = 1 << 20; bucket(fresh) != bucket(victim); fresh++ {
			}
			live, n := sp.LiveWords(), s.Len()
			ops := []Op{{Kind: OpDelete, Key: victim}, {Kind: OpPut, Key: fresh, Val: 7}}
			for k := uint64(1 << 21); len(ops) < 2048; k++ {
				ops = append(ops, Op{Kind: OpPut, Key: k, Val: k})
			}
			func() {
				defer func() {
					if r := recover(); r != core.ErrSpaceExhausted {
						t.Fatalf("the batch panicked with %v, want ErrSpaceExhausted", r)
					}
				}()
				s.Apply(ops)
			}()
			if l, got := sp.LiveWords(), s.Len(); l != live || got != n {
				t.Fatalf("after the panic: %d live words, %d keys; want %d, %d", l, got, live, n)
			}
			if v, ok := s.Get(victim); !ok || v != victim {
				t.Fatalf("Get(%d) = %d, %v after the panic; want the deleted key back at %d", victim, v, ok, victim)
			}
			if _, ok := s.Get(fresh); ok {
				t.Fatalf("key %d, put into the freed slot by the failed batch, is present", fresh)
			}
		})
	}
}

// TestAckedBulkBatchesSurviveKillAtAnyPoint is
// TestAckedStoreOpsSurviveKillAtAnyPoint for bulk batches, each a frame
// of bulkOps or more records spanning several sectors, between point
// updates: on a reserving MemFS, whatever disk sectors the crash keeps,
// recovery rebuilds exactly the acked state, or the acked state plus the
// one batch in flight, whole.
func TestAckedBulkBatchesSurviveKillAtAnyPoint(t *testing.T) {
	for name, keep := range map[string]func(i, n int) bool{
		"none":  func(i, n int) bool { return false },
		"all":   func(i, n int) bool { return true },
		"first": func(i, n int) bool { return i == 0 },
		"last":  func(i, n int) bool { return i == n-1 },
	} {
		t.Run(name, func(t *testing.T) {
			sweepBulkKills(t, func(fs *wal.MemFS) { fs.CrashSectors(keep) })
		})
	}
}

func sweepBulkKills(t *testing.T, crash func(*wal.MemFS)) {
	const rounds, keys = 12, 3 * bulkOps
	for n := 1; ; n++ {
		fs := wal.NewReservingMemFS()
		s, l, tm := durableStore(t, fs, false)
		fs.CrashAtWrite(n)

		model := map[uint64]uint64{}
		var inFlight map[uint64]uint64
		r := rng.New(uint64(n))
		for i := 0; i < rounds && inFlight == nil; i++ {
			next := maps.Clone(model)
			ops := make([]Op, bulkOps+r.Intn(bulkOps))
			for j := range ops {
				k := r.Uint64n(keys)
				switch r.Intn(3) {
				case 0:
					v := r.Uint64n(1000)
					ops[j] = Op{Kind: OpPut, Key: k, Val: v}
					next[k] = v
				case 1:
					ops[j] = Op{Kind: OpDelete, Key: k}
					delete(next, k)
				default:
					ops[j] = Op{Kind: OpAdd, Key: k, Val: 3}
					next[k] += 3
				}
			}
			point := r.Uint64n(keys)
			func() {
				defer func() {
					if rec := recover(); rec != nil {
						if _, ok := rec.(*DurabilityError); !ok {
							panic(rec)
						}
						inFlight = next
					}
				}()
				s.Apply(ops)
				model = next
				next = maps.Clone(model)
				next[point] = uint64(i)
				s.Put(point, uint64(i))
				model = next
			}()
		}
		if irr := tm.Stats().IrrevocableCommits; irr == 0 {
			t.Fatalf("crash %d: no batch ran irrevocably", n)
		}
		tm.SetRedoHook(nil)
		l.Close()
		s.Close()

		if inFlight == nil {
			t.Logf("%d crash points", n-1)
			return
		}
		crash(fs)
		state, stats, err := wal.Replay(fs, "wal")
		if err != nil {
			t.Fatalf("crash at write %d: Replay: %v", n, err)
		}
		if maps.Equal(state, model) {
			continue
		}
		if !maps.Equal(state, inFlight) || stats.TornBytes != 0 {
			t.Fatalf("crash at write %d: recovered %v (torn %d); acked %v, in flight %v", n, state, stats.TornBytes, model, inFlight)
		}
	}
}

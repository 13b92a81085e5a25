package kvstore

import (
	"maps"
	"testing"

	"tinystm/internal/core"
	"tinystm/internal/mem"
	"tinystm/internal/rng"
)

// walkLayout reads m's shards straight from the space, outside any
// transaction (nothing may run meanwhile), checks the bucket layout —
// every line on a line boundary, meta bits only for the slots, each key
// once and in the shard and bucket its hash picks, each shard's key
// counter equal to its keys — and returns the pairs it holds, with the lines
// of overflow the chains hang off their heads.
func walkLayout(t *testing.T, sp *mem.Space, m *Map) (pairs map[uint64]uint64, overflow int) {
	t.Helper()
	pairs = map[uint64]uint64{}
	for s := range m.shards {
		hdr := mem.Addr(m.base + s*hdrWords)
		dir, nb, count := mem.Addr(sp.Load(hdr+hdrDir)), sp.Load(hdr+hdrNBkts), m.count(s)
		if hdr%lineWords != 0 || dir%lineWords != 0 {
			t.Fatalf("shard %d: header at %d, directory at %d: not on line boundaries", s, hdr, dir)
		}
		n := uint64(0)
		for b := range nb {
			head := dir + mem.Addr(b*lineWords)
			for line := head; line != mem.Nil; line = mem.Addr(sp.Load(line + lineNext)) {
				if line%lineWords != 0 {
					t.Fatalf("shard %d bucket %d: a line at %d, not on a line boundary", s, b, line)
				}
				if line != head {
					overflow++
				}
				meta := sp.Load(line + lineMeta)
				if meta&^fullMeta != 0 {
					t.Fatalf("shard %d bucket %d: meta %#x has bits past the %d slots", s, b, meta, slots)
				}
				for i := range slots {
					if meta&(1<<i) == 0 {
						continue
					}
					k, v := sp.Load(line+mem.Addr(keyWord(i))), sp.Load(line+mem.Addr(keyWord(i))+1)
					h := hash(k)
					if h&(m.shards-1) != s || (h>>m.shardBits)&(nb-1) != b {
						t.Fatalf("key %d sits in shard %d bucket %d; its hash picks shard %d bucket %d",
							k, s, b, h&(m.shards-1), (h>>m.shardBits)&(nb-1))
					}
					if _, dup := pairs[k]; dup {
						t.Fatalf("key %d is in the table twice", k)
					}
					pairs[k] = v
					n++
				}
			}
		}
		if n != count {
			t.Fatalf("shard %d holds %d keys, its counter says %d", s, n, count)
		}
	}
	return pairs, overflow
}

// TestGrowMatchesModel drives a store through inserts, deletes,
// re-inserts into the slots deletes freed, overflow chains and growths —
// point ops, short transactional batches and bulk batches, which grow in
// their own freeze — on WB and WT, and checks the table against a Go map
// and the layout walk after every round. A re-insert of a key just
// deleted takes no arena: its slot is free.
func TestGrowMatchesModel(t *testing.T) {
	for _, d := range []core.Design{core.WriteBack, core.WriteThrough} {
		t.Run(d.String(), func(t *testing.T) {
			tm := newTM(t, d, 1<<18)
			sp := tm.Space()
			s := NewStore[*core.Tx](tm, 4, 2) // tiny directories: growth after a few inserts
			defer s.Close()
			model := map[uint64]uint64{}
			r := rng.New(5)
			const keyRange = 3000
			var sawOverflow bool
			// Each round is insert-heavy, then delete-heavy, so keys
			// come and go, chains fill and empty, and shards grow.
			for round := range 30 {
				insertShare := 8
				if round%2 == 1 {
					insertShare = 3
				}
				for range 200 {
					k := r.Uint64n(keyRange)
					switch {
					case r.Intn(10) < insertShare:
						v := r.Uint64()
						_, had := model[k]
						if ins := s.Put(k, v); ins == had {
							t.Fatalf("round %d: Put(%d) inserted=%v, model had=%v", round, k, ins, had)
						}
						model[k] = v
					default:
						_, had := model[k]
						if found := deleteKey(s, k); found != had {
							t.Fatalf("round %d: Delete(%d) found=%v, model had=%v", round, k, found, had)
						}
						delete(model, k)
					}
				}
				// A batch: a bulk one on even rounds.
				n := 8
				if round%2 == 0 {
					n = bulkOps + 16
				}
				ops := make([]Op, n)
				for i := range ops {
					k := r.Uint64n(keyRange)
					if r.Intn(4) == 0 {
						ops[i] = Op{Kind: OpDelete, Key: k}
						delete(model, k)
					} else {
						ops[i] = Op{Kind: OpAdd, Key: k, Val: 3}
						model[k] += 3
					}
				}
				s.Apply(ops)
				got, overflow := walkLayout(t, sp, s.Map())
				if !maps.Equal(got, model) {
					t.Fatalf("round %d: the table holds %d pairs, the model %d, and they differ", round, len(got), len(model))
				}
				sawOverflow = sawOverflow || overflow > 0
				for k, v := range model {
					if got, ok := s.Get(k); !ok || got != v {
						t.Fatalf("round %d: Get(%d) = %d, %v; want %d", round, k, got, ok, v)
					}
				}
				if pairs, total := s.Scan(0); len(pairs) != len(model) || total != uint64(len(model)) {
					t.Fatalf("round %d: Scan returned %d pairs of %d, want %d", round, len(pairs), total, len(model))
				}
				for k := range model { // one key: its freed slot takes it back
					v := model[k]
					live := sp.LiveWords()
					deleteKey(s, k)
					s.Put(k, v)
					if l := sp.LiveWords(); l != live {
						t.Fatalf("round %d: re-inserting key %d moved the arena from %d to %d live words", round, k, live, l)
					}
					break
				}
			}
			if s.Grows() < 4 {
				t.Fatalf("%d growths: the test grew too little to test growth", s.Grows())
			}
			if !sawOverflow {
				t.Fatal("no chain ever had an overflow line")
			}
		})
	}
}

// TestPreloadArenaPerKey pins the arena a stmkvd-shaped store (16 shards
// of 64 buckets) takes for the ledger's preload, keys 0…65 535 in
// 1 024-put batches: at most 240 768 live words, 29.4 B a key, what the
// chain of 3-word nodes took. It logs the lines a Get of each key reads.
func TestPreloadArenaPerKey(t *testing.T) {
	const keys, batch, pin = 1 << 16, 1024, 240768
	tm := core.MustNew(core.Config{Space: mem.NewSpace(1 << 20), Locks: 1 << 16, Snapshots: true})
	s := NewStore[*core.Tx](tm, 16, 64)
	defer s.Close()
	ops := make([]Op, batch)
	res := make([]OpResult, batch)
	for lo := uint64(0); lo < keys; lo += batch {
		for i := range ops {
			ops[i] = Op{Kind: OpPut, Key: lo + uint64(i), Val: lo + uint64(i)}
		}
		s.ApplyInto(ops, res)
	}
	sp := tm.Space()
	pairs, overflow := walkLayout(t, sp, s.Map())
	if len(pairs) != keys {
		t.Fatalf("%d keys in the table, want %d", len(pairs), keys)
	}
	live := sp.LiveWords()
	t.Logf("%d live words, %.1f B a key; %d overflow lines; %d growths; %.3f lines a Get",
		live, float64(live*8)/keys, overflow, s.Grows(), linesPerGet(sp, s.Map()))
	if live > pin {
		t.Fatalf("%d live arena words for %d keys (%.1f B a key), want at most %d (29.4 B a key)", live, keys, float64(live*8)/keys, pin)
	}
}

// linesPerGet is the mean count of bucket lines a Get of a present key
// reads: its line's position in the chain, one for a head line.
func linesPerGet(sp *mem.Space, m *Map) float64 {
	var lines, keys uint64
	for s := range m.shards {
		hdr := mem.Addr(m.base + s*hdrWords)
		dir, nb := mem.Addr(sp.Load(hdr+hdrDir)), sp.Load(hdr+hdrNBkts)
		for b := range nb {
			pos := uint64(1)
			for line := dir + mem.Addr(b*lineWords); line != mem.Nil; line = mem.Addr(sp.Load(line + lineNext)) {
				n := uint64(0)
				for meta := sp.Load(line + lineMeta); meta != 0; meta &= meta - 1 {
					n++
				}
				lines += n * pos
				keys += n
				pos++
			}
		}
	}
	return float64(lines) / float64(keys)
}

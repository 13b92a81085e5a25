package kvstore

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"tinystm/internal/core"
	"tinystm/internal/obs"
	"tinystm/internal/rng"
	"tinystm/internal/txn"
)

// recordingSink is a DurabilitySink whose tickets are the commits' redo
// records (see recordRedo): waiting on one appends it to the log.
type recordingSink struct {
	mu  sync.Mutex
	log [][]txn.RedoOp
}

func (r *recordingSink) WaitDurable(t txn.DurableTicket) error {
	r.mu.Lock()
	r.log = append(r.log, t.([]txn.RedoOp))
	r.mu.Unlock()
	return nil
}

// recordRedo turns durability on with a recordingSink and a redo hook that
// hands each commit's records back as its ticket.
func recordRedo(t *testing.T, tm *core.TM, s *Store[*core.Tx]) *recordingSink {
	t.Helper()
	sink := &recordingSink{}
	if err := s.EnableDurability(sink); err != nil {
		t.Fatalf("EnableDurability: %v", err)
	}
	tm.SetRedoHook(func(_, _ uint64, ops []txn.RedoOp) txn.DurableTicket {
		return slices.Clone(ops)
	})
	return sink
}

// kindResult is what Get and Update answer for a batch op's result: only
// the kind's own field.
func kindResult(kind OpKind, r OpResult) OpResult {
	switch kind {
	case OpGet:
		return OpResult{Val: r.Val, Found: r.Found}
	case OpPut, OpCAS:
		return OpResult{OK: r.OK}
	case OpDelete:
		return OpResult{Found: r.Found}
	default:
		return OpResult{Val: r.Val}
	}
}

// TestPointOpsMatchOneOpBatches drives one random sequence of every kind
// through Get/Update on one store and through one-op ApplyInto batches on
// its twin. Both reach the same table, log the same redo records and grow
// the same shards; Get and Update answer only their kind's field of the
// batch result; and the heat map counts one op per Get or Update and none
// per batch.
func TestPointOpsMatchOneOpBatches(t *testing.T) {
	for _, d := range []core.Design{core.WriteBack, core.WriteThrough} {
		t.Run(d.String(), func(t *testing.T) {
			const shards, keys = 4, 96
			tmP, tmB := newTM(t, d, 1<<18), newTM(t, d, 1<<18)
			point := NewStore[*core.Tx](tmP, shards, 2) // tiny directories: inserts grow shards
			batch := NewStore[*core.Tx](tmB, shards, 2)
			defer point.Close()
			defer batch.Close()
			sinkP, sinkB := recordRedo(t, tmP, point), recordRedo(t, tmB, batch)
			heatP, heatB := obs.NewShardHeat(shards), obs.NewShardHeat(shards)
			point.SetShardHeat(heatP)
			batch.SetShardHeat(heatB)

			r := rng.New(11)
			model := make(map[uint64]uint64)
			var perShard [shards]uint64
			var overwrites int
			res := make([]OpResult, 1)
			for i := 0; i < 4000; i++ {
				op := Op{Kind: OpKind(r.Intn(5)), Key: uint64(r.Intn(keys)), Val: uint64(r.Intn(8))}
				op.Old = uint64(r.Intn(8))
				if r.Intn(2) == 0 {
					op.Old = model[op.Key]
				}
				_, existed := model[op.Key]

				var got OpResult
				if op.Kind == OpGet {
					got.Val, got.Found = point.Get(op.Key)
				} else {
					var tk txn.DurableTicket
					got, tk = point.Update(op.Kind, op.Key, op.Val, op.Old)
					point.waitDurable(tk)
				}
				perShard[point.Map().Shard(op.Key)]++
				batch.waitDurable(batch.ApplyInto([]Op{op}, res))

				if want := kindResult(op.Kind, res[0]); got != want {
					t.Fatalf("op %d %+v: point answered %+v, the batch %+v (want %+v)", i, op, got, res[0], want)
				}
				if op.Kind == OpPut && existed {
					overwrites++
					if got != (OpResult{}) || !res[0].Found {
						t.Fatalf("op %d: Put over an existing key answered %+v (batch %+v), want OpResult{} (batch Found)", i, got, res[0])
					}
				}
				switch op.Kind {
				case OpPut:
					model[op.Key] = op.Val
				case OpDelete:
					delete(model, op.Key)
				case OpCAS:
					if v, ok := model[op.Key]; ok && v == op.Old {
						model[op.Key] = op.Val
					}
				case OpAdd:
					model[op.Key] += op.Val
				}
			}
			if overwrites == 0 {
				t.Fatal("no Put overwrote a key: the projection went untested")
			}

			pairsP, nP := point.Scan(0)
			pairsB, nB := batch.Scan(0)
			if nP != uint64(len(model)) || !slices.Equal(pairsP, pairsB) || nP != nB {
				t.Fatalf("tables differ: point %d keys, batch %d, model %d", nP, nB, len(model))
			}
			for _, kv := range pairsP {
				if model[kv.Key] != kv.Val {
					t.Fatalf("key %d = %d, model %d", kv.Key, kv.Val, model[kv.Key])
				}
			}
			if len(sinkP.log) == 0 || !slices.EqualFunc(sinkP.log, sinkB.log, slices.Equal) {
				t.Fatalf("redo logs differ: point %d commits, batch %d", len(sinkP.log), len(sinkB.log))
			}
			if g := point.Grows(); g == 0 || g != batch.Grows() {
				t.Fatalf("grows: point %d, batch %d, want equal and > 0", g, batch.Grows())
			}
			for sh := range shards {
				if got := heatP.Ops(sh); got != perShard[sh] {
					t.Errorf("shard %d: heat counts %d point ops, want %d", sh, got, perShard[sh])
				}
				if got := heatB.Ops(sh); got != 0 {
					t.Errorf("shard %d: heat counts %d batch ops, want 0", sh, got)
				}
			}
		})
	}
}

// TestCarriersRecycleAcrossOperations: goroutines mix Get, Update and
// one-op and multi-op ApplyInto on one store. Each owns its keys, so every
// answer is checked against its own model, and all of them add to one
// shared counter, so attempts conflict and retry. Every kind of operation
// borrows its carrier from the one free list, so it never holds more
// carriers than there were operations in flight.
func TestCarriersRecycleAcrossOperations(t *testing.T) {
	const workers, rounds, own = 4, 1500, 16
	const counter = uint64(1 << 40)
	tm := newTM(t, core.WriteBack, 1<<18)
	s := NewStore[*core.Tx](tm, 4, 2)
	defer s.Close()
	heat := obs.NewShardHeat(4)
	s.SetShardHeat(heat)

	var wg sync.WaitGroup
	errs := make(chan error, workers)
	points := make([]uint64, workers)
	adds := make([]uint64, workers)
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rng.New(uint64(w) + 1)
			model := make(map[uint64]uint64)
			res := make([]OpResult, 2)
			for i := 0; i < rounds; i++ {
				key := uint64(w*own + r.Intn(own))
				val := uint64(r.Intn(100))
				var got, want OpResult
				switch r.Intn(5) {
				case 0:
					got.Val, got.Found = s.Get(key)
					want.Val, want.Found = model[key]
					points[w]++
				case 1:
					got, _ = s.Update(OpPut, key, val, 0)
					_, existed := model[key]
					want.OK = !existed
					model[key] = val
					points[w]++
				case 2:
					got, _ = s.Update(OpAdd, counter, 1, 0)
					got, want = OpResult{OK: got.Val > 0}, OpResult{OK: true}
					adds[w]++
					points[w]++
				case 3:
					s.ApplyInto([]Op{{Kind: OpDelete, Key: key}}, res[:1])
					got = res[0]
					_, want.Found = model[key]
					delete(model, key)
				default:
					s.ApplyInto([]Op{{Kind: OpAdd, Key: counter, Val: 1}, {Kind: OpGet, Key: key}}, res)
					adds[w]++
					got = res[1]
					want.Val, want.Found = model[key]
				}
				if got != want {
					errs <- fmt.Errorf("worker %d round %d: key %d answered %+v, want %+v", w, i, key, got, want)
					return
				}
			}
			for k := uint64(w * own); k < uint64((w+1)*own); k++ {
				v, ok := s.Get(k)
				points[w]++
				if mv, mok := model[k]; ok != mok || v != mv {
					errs <- fmt.Errorf("worker %d: key %d = (%d, %v), model (%d, %v)", w, k, v, ok, mv, mok)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	var wantAdds, wantPoints, gotPoints uint64
	for w := range workers {
		wantAdds += adds[w]
		wantPoints += points[w]
	}
	if got, _ := s.Get(counter); got != wantAdds {
		t.Fatalf("counter = %d, want %d adds", got, wantAdds)
	}
	wantPoints++
	for sh := range heat.Shards() {
		gotPoints += heat.Ops(sh)
	}
	if gotPoints != wantPoints {
		t.Fatalf("heat counts %d ops, want %d (Gets and Updates only)", gotPoints, wantPoints)
	}
	if n := len(s.free); n == 0 || n > workers {
		t.Fatalf("%d carriers for %d concurrent borrowers", n, workers)
	}
}

package kvstore

import (
	"maps"
	"sync"
	"testing"

	"tinystm/internal/core"
	"tinystm/internal/mem"
	"tinystm/internal/rng"
	"tinystm/internal/txn"
	"tinystm/internal/wal"
)

// walTestSink acks an operation once its commit's redo records are
// fsynced — the same adapter kvserver uses.
type walTestSink struct{ log *wal.Log }

func (s walTestSink) WaitDurable(t txn.DurableTicket) error { return t.(*wal.Pending).Wait() }

// durableStore wires the full group-commit path on an in-memory
// filesystem: TM redo hook -> wal.Log -> sink the store blocks on.
func durableStore(t *testing.T, fs *wal.MemFS, snapshots bool) (*Store[*core.Tx], *wal.Log, *core.TM) {
	t.Helper()
	tm := core.MustNew(core.Config{
		Space: mem.NewSpace(1 << 20), Design: core.WriteBack, Snapshots: snapshots,
	})
	s := NewStore[*core.Tx](tm, 4, 8)
	// Small segments: a reserving MemFS holds each one whole, twice, and
	// the kill sweep builds hundreds.
	l, err := wal.Open(wal.Config{Dir: "wal", FS: fs, SegmentBytes: 1 << 16})
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	if err := s.EnableDurability(walTestSink{log: l}); err != nil {
		t.Fatalf("EnableDurability: %v", err)
	}
	tm.SetRedoHook(func(epoch, ts uint64, ops []txn.RedoOp) txn.DurableTicket {
		return l.Append(epoch, ts, ops)
	})
	return s, l, tm
}

// TestEffectiveWriteSemantics pins down what gets logged: effective state
// changes only. A failed CAS and a Delete of a missing key leave no
// record; an Add logs its RESULT as a plain put, so replay never has to
// re-execute arithmetic.
func TestEffectiveWriteSemantics(t *testing.T) {
	fs := wal.NewMemFS()
	s, l, tm := durableStore(t, fs, false)
	defer s.Close()

	s.Put(1, 5)
	if s.CAS(1, 999, 7) {
		t.Fatal("CAS with wrong old value succeeded")
	}
	if !s.CAS(1, 5, 9) {
		t.Fatal("CAS with right old value failed")
	}
	s.Add(2, 7)
	s.Add(2, 3)
	if deleteKey(s, 3) {
		t.Fatal("Delete of missing key reported found")
	}
	deleteKey(s, 1)

	tm.SetRedoHook(nil)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	state, stats, err := wal.Replay(fs, "wal")
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	// put(1,5), cas->9, add->7, add->10, delete(1): survivors {2:10}.
	if len(state) != 1 || state[2] != 10 {
		t.Fatalf("replayed state = %v, want map[2:10]", state)
	}
	// 5 effective writes; the failed CAS and missed Delete logged nothing.
	if stats.Ops != 5 {
		t.Fatalf("replayed %d ops, want 5 (stats %+v)", stats.Ops, stats)
	}
}

// TestRedoPositionsAcrossMoves: a move keeps the clock, so the redo hook
// sees one clock epoch and strictly increasing timestamps across it, and
// replay rebuilds every acked write.
func TestRedoPositionsAcrossMoves(t *testing.T) {
	fs := wal.NewMemFS()
	s, l, tm := durableStore(t, fs, true)
	defer s.Close()
	type pos struct{ epoch, ts uint64 }
	var seen []pos
	tm.SetRedoHook(func(epoch, ts uint64, ops []txn.RedoOp) txn.DurableTicket {
		seen = append(seen, pos{epoch, ts})
		return l.Append(epoch, ts, ops)
	})
	for k := uint64(0); k < 8; k++ {
		s.Put(k, k)
	}
	if err := tm.Reconfigure(core.Params{Locks: 1 << 6, Shifts: 1, Hier: 4}); err != nil {
		t.Fatalf("Reconfigure: %v", err)
	}
	for k := uint64(0); k < 8; k++ {
		s.Put(k, k+100)
	}
	tm.SetRedoHook(nil)
	if len(seen) != 16 {
		t.Fatalf("hook saw %d commits, want 16", len(seen))
	}
	for i := 1; i < len(seen); i++ {
		if seen[i].epoch != seen[0].epoch || seen[i].ts <= seen[i-1].ts {
			t.Fatalf("commit %d at %+v after %+v: want the same epoch and a later timestamp", i, seen[i], seen[i-1])
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	state, _, err := wal.Replay(fs, "wal")
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	for k := uint64(0); k < 8; k++ {
		if state[k] != k+100 {
			t.Fatalf("replayed %d = %d, want %d", k, state[k], k+100)
		}
	}
}

// TestAckedStoreOpsSurviveKillAtAnyPoint is the end-to-end durability
// property at the Store surface: sweep the crash point across every WAL
// write the workload produces; whatever the Store acked before the crash
// must be exactly the state recovery rebuilds — nothing lost, and nothing
// unacked resurrected, unless the disk kept every sector of the one frame
// in flight. Run on a plain MemFS (segments grow, the crash tears the
// write in half) and on a reserving one (segments written in place) under
// each way a disk can keep some unsynced sectors and lose others.
func TestAckedStoreOpsSurviveKillAtAnyPoint(t *testing.T) {
	t.Run("plain", func(t *testing.T) {
		// restart with a couple of torn bytes past the durable prefix
		sweepStoreKills(t, wal.NewMemFS, func(fs *wal.MemFS) { fs.Crash(2) })
	})
	for name, keep := range map[string]func(i, n int) bool{
		"none":  func(i, n int) bool { return false },
		"all":   func(i, n int) bool { return true },
		"first": func(i, n int) bool { return i == 0 },
		"last":  func(i, n int) bool { return i == n-1 },
	} {
		t.Run("reserving/"+name, func(t *testing.T) {
			sweepStoreKills(t, wal.NewReservingMemFS, func(fs *wal.MemFS) { fs.CrashSectors(keep) })
		})
	}
}

func sweepStoreKills(t *testing.T, newFS func() *wal.MemFS, crash func(*wal.MemFS)) {
	const ops = 100 // ~4 KB of frames: every tenth straddles two sectors
	for n := 1; ; n++ {
		fs := newFS()
		s, l, tm := durableStore(t, fs, false)
		// Arm after Open so the segment header is already durable and the
		// n-th DATA write is the one that tears.
		fs.CrashAtWrite(n)

		model := map[uint64]uint64{}
		// inFlight is the model had the op the crash caught been acked.
		var inFlight map[uint64]uint64
		r := rng.New(uint64(n))
		for i := 0; i < ops && inFlight == nil; i++ {
			k := r.Uint64n(7)
			// An op that panics with DurabilityError committed in memory
			// but was never acked.
			next := maps.Clone(model)
			func() {
				defer func() {
					if rec := recover(); rec != nil {
						if _, ok := rec.(*DurabilityError); !ok {
							panic(rec)
						}
						inFlight = next
					}
				}()
				switch r.Intn(4) {
				case 0:
					v := r.Uint64n(1000)
					next[k] = v
					s.Put(k, v)
				case 1:
					delete(next, k)
					deleteKey(s, k)
				case 2:
					next[k] += 3
					if got := s.Add(k, 3); got != next[k] {
						t.Fatalf("crash %d op %d: Add = %d, model says %d", n, i, got, next[k])
					}
				default:
					old, had := model[k]
					if had {
						next[k] = old + 1
					}
					if s.CAS(k, old, old+1) != had {
						t.Fatalf("crash %d op %d: CAS disagreed with model", n, i)
					}
				}
				model = next
			}()
		}
		tm.SetRedoHook(nil)
		l.Close()
		s.Close()

		if inFlight == nil {
			// The sweep passed the end of the workload's writes: done.
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
		// Not the acked state: then the unacked frame, whole — and a whole
		// frame leaves no torn bytes.
		if !maps.Equal(state, inFlight) || stats.TornBytes != 0 {
			t.Fatalf("crash at write %d: recovered %v (torn %d); acked %v, in flight %v", n, state, stats.TornBytes, model, inFlight)
		}
	}
}

// TestCheckpointTruncateEquivalence runs the full checkpoint-then-truncate
// protocol repeatedly UNDER concurrent writers and checks the invariant
// the protocol promises: at every moment, {newest checkpoint + surviving
// segments} replays to a state consistent with what was acked. Run with
// -race this also proves CheckpointScan coexists with the redo hook.
func TestCheckpointTruncateEquivalence(t *testing.T) {
	fs := wal.NewMemFS()
	s, l, tm := durableStore(t, fs, true) // snapshots on, as on a durable server
	defer s.Close()

	const writers = 4
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rng.New(uint64(w) + 1)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := r.Uint64n(64)
				switch i % 3 {
				case 0:
					s.Put(k, r.Uint64n(1000))
				case 1:
					s.Add(k, 1)
				default:
					deleteKey(s, k)
				}
			}
		}(w)
	}

	ckptIdx := uint64(1)
	for round := 0; round < 5; round++ {
		segIdx, err := l.Rotate()
		if err != nil {
			t.Fatalf("round %d: Rotate: %v", round, err)
		}
		pairs, epoch, ts := s.CheckpointScan()
		if err := wal.WriteCheckpoint(fs, "wal", ckptIdx, epoch, ts, pairs); err != nil {
			t.Fatalf("round %d: WriteCheckpoint: %v", round, err)
		}
		if err := l.DropSegmentsBefore(segIdx); err != nil {
			t.Fatalf("round %d: DropSegmentsBefore: %v", round, err)
		}
		if err := wal.RemoveCheckpointsBefore(fs, "wal", ckptIdx); err != nil {
			t.Fatalf("round %d: RemoveCheckpointsBefore: %v", round, err)
		}
		ckptIdx++
	}

	close(stop)
	wg.Wait()
	tm.SetRedoHook(nil)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Quiesced: replay of the truncated log must equal the live table.
	want, _, _ := s.CheckpointScan()
	state, stats, err := wal.Replay(fs, "wal")
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if !stats.CheckpointFound {
		t.Fatalf("no checkpoint found after %d rounds (stats %+v)", ckptIdx-1, stats)
	}
	if len(state) != len(want) {
		t.Fatalf("replayed %d keys, live table has %d", len(state), len(want))
	}
	for _, kv := range want {
		if state[kv.Key] != kv.Val {
			t.Fatalf("key %d: replayed %d, live %d", kv.Key, state[kv.Key], kv.Val)
		}
	}
}

// TestLoadAfterEnableDurabilityPanics: reloading replayed records through
// a live log would double them; the guard must be loud. A nil sink is
// refused: it would turn nothing on.
func TestLoadAfterEnableDurabilityPanics(t *testing.T) {
	tm := core.MustNew(core.Config{Space: mem.NewSpace(1 << 18), Design: core.WriteBack})
	s := NewStore[*core.Tx](tm, 2, 4)
	defer s.Close()
	if err := s.EnableDurability(nil); err == nil {
		t.Fatal("EnableDurability(nil) succeeded")
	}
	if err := s.EnableDurability(walTestSink{}); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Load after EnableDurability did not panic")
		}
	}()
	s.Load(map[uint64]uint64{1: 1})
}

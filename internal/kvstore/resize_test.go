package kvstore

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tinystm/internal/core"
	"tinystm/internal/mem"
	"tinystm/internal/obs"
	"tinystm/internal/rng"
)

// TestResizeUnderLoad stresses the growth path: inserters push every shard
// through multiple directory growths while readers hammer already-inserted
// keys. A reader's transaction runs wholly before or wholly after a Grow's
// freeze — a key observed missing after its insert committed means the
// rehash tore.
func TestResizeUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	tm := core.MustNew(core.Config{Space: mem.NewSpace(1 << 20)})
	s := NewStore[*core.Tx](tm, 2, 2) // tiny directories: growth is constant
	defer s.Close()

	const writers = 4
	const perWriter = 2000
	var progress [writers]atomic.Uint64 // committed-insert high-water mark per writer
	var writeWg, readWg sync.WaitGroup
	var readErr atomic.Pointer[string]

	for i := 0; i < writers; i++ {
		writeWg.Add(1)
		go func(id int) {
			defer writeWg.Done()
			base := uint64(id) * perWriter
			for n := uint64(0); n < perWriter; n++ {
				s.Put(base+n, base+n+1)
				progress[id].Store(n + 1)
			}
		}(i)
	}

	var stop atomic.Bool
	readWg.Add(1)
	go func() {
		defer readWg.Done()
		r := rng.New(17)
		for !stop.Load() {
			// Read a key its writer has already committed.
			id := r.Uint64n(writers)
			done := progress[id].Load()
			if done == 0 {
				continue
			}
			k := id*perWriter + r.Uint64n(done)
			if v, found := s.Get(k); !found || v != k+1 {
				msg := "reader lost key during resize"
				readErr.Store(&msg)
				return
			}
		}
	}()

	writeWg.Wait()
	stop.Store(true)
	readWg.Wait()
	if msg := readErr.Load(); msg != nil {
		t.Fatal(*msg)
	}

	if got := s.Len(); got != writers*perWriter {
		t.Fatalf("Len = %d, want %d", got, writers*perWriter)
	}
	tx := tm.NewTx()
	defer tx.Release()
	var grew bool
	tm.AtomicRO(tx, func(tx *core.Tx) {
		for sh := uint64(0); sh < s.Map().Shards(); sh++ {
			if _, b := s.Map().ShardLoad(tx, sh); b > 2 {
				grew = true
			}
		}
	})
	if !grew {
		t.Fatal("no shard ever grew under load")
	}
	for k := uint64(0); k < writers*perWriter; k++ {
		if v, found := s.Get(k); !found || v != k+1 {
			t.Fatalf("Get(%d) = (%d,%v) after the dust settled", k, v, found)
		}
	}
}

// TestResizeUnderMovesAndScans races the growth freezes against everything
// else that stops or spans the world: a stream of Reconfigures moving the
// geometry, snapshot scans of the whole table, point readers, and two
// inserters (one by Put, one by 8-key batches) that keep four 2-bucket
// shards growing, in both designs at h = 1 and 4. Every scan must return
// exactly the Len it reports, each key once with its value, and every key
// committed before it started; every committed key must stay readable.
func TestResizeUnderMovesAndScans(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	for _, d := range []core.Design{core.WriteBack, core.WriteThrough} {
		for _, h := range []uint64{1, 4} {
			t.Run(fmt.Sprintf("%v/h=%d", d, h), func(t *testing.T) {
				resizeUnderMovesAndScans(t, d, h)
			})
		}
	}
}

func resizeUnderMovesAndScans(t *testing.T, d core.Design, h uint64) {
	tm := core.MustNew(core.Config{
		Space: mem.NewSpace(1 << 20), Design: d, Locks: 1 << 8, Hier: h,
		Snapshots: true,
	})
	o := obs.NewTMObs(nil)
	tm.SetObs(o)
	s := NewStore[*core.Tx](tm, 4, 2)
	defer s.Close()

	const writers, perWriter, batch = 2, 1600, 8
	var progress [writers]atomic.Uint64 // committed-insert high-water mark per writer
	committed := func() (keys uint64, marks [writers]uint64) {
		for i := range marks {
			marks[i] = progress[i].Load()
			keys += marks[i]
		}
		return keys, marks
	}
	// The writers start once every background goroutine has done its
	// first round (or given up), so each of them overlaps the growths.
	var writeWg, bgWg, ready sync.WaitGroup
	var stop atomic.Bool
	var scans atomic.Uint64
	errs := make(chan string, 8)
	fail := func(format string, args ...any) {
		select {
		case errs <- fmt.Sprintf(format, args...):
		default:
		}
		stop.Store(true)
	}

	ready.Add(3)
	writeWg.Add(writers)
	go func() { // writer 0: one Put per key
		defer writeWg.Done()
		ready.Wait()
		for n := uint64(0); n < perWriter && !stop.Load(); n++ {
			s.Put(n, n+1)
			progress[0].Store(n + 1)
		}
	}()
	go func() { // writer 1: batches of Puts
		defer writeWg.Done()
		ready.Wait()
		ops := make([]Op, batch)
		res := make([]OpResult, batch)
		for n := uint64(0); n < perWriter && !stop.Load(); n += batch {
			for i := range ops {
				k := perWriter + n + uint64(i)
				ops[i] = Op{Kind: OpPut, Key: k, Val: k + 1}
			}
			s.ApplyInto(ops, res)
			progress[1].Store(n + batch)
		}
	}()

	bgWg.Add(3)
	go func() { // the move stream, a move every ~100 µs
		defer bgWg.Done()
		started := sync.OnceFunc(ready.Done)
		defer started()
		geos := []core.Params{
			{Locks: 1 << 8, Shifts: 0, Hier: h},
			{Locks: 1 << 10, Shifts: 1, Hier: h},
			{Locks: 1 << 6, Shifts: 2, Hier: h},
		}
		for i := 0; !stop.Load(); i++ {
			if err := tm.Reconfigure(geos[i%len(geos)]); err != nil {
				fail("Reconfigure: %v", err)
			}
			started()
			time.Sleep(100 * time.Microsecond)
		}
	}()
	go func() { // point reader of committed keys
		defer bgWg.Done()
		r := rng.New(17)
		ready.Done()
		for !stop.Load() {
			id := r.Uint64n(writers)
			done := progress[id].Load()
			if done == 0 {
				continue
			}
			k := id*perWriter + r.Uint64n(done)
			if v, found := s.Get(k); !found || v != k+1 {
				fail("Get(%d) = (%d,%v) after its insert committed", k, v, found)
				return
			}
		}
	}()
	go func() { // snapshot scanner
		defer bgWg.Done()
		started := sync.OnceFunc(ready.Done)
		defer started()
		seen := make(map[uint64]bool)
		for !stop.Load() {
			_, marks := committed()
			// Bounded one past the table, so a torn chain fails the
			// count check instead of looping.
			pairs, total := s.Scan(writers*perWriter + 1)
			if uint64(len(pairs)) != total {
				fail("scan returned %d pairs, counted %d", len(pairs), total)
				return
			}
			clear(seen)
			for _, kv := range pairs {
				if seen[kv.Key] || kv.Val != kv.Key+1 {
					fail("scan pair %d=%d (seen before: %v)", kv.Key, kv.Val, seen[kv.Key])
					return
				}
				seen[kv.Key] = true
			}
			for id, done := range marks {
				for n := uint64(0); n < done; n++ {
					if k := uint64(id)*perWriter + n; !seen[k] {
						fail("scan of %d pairs misses key %d, committed before it began", len(pairs), k)
						return
					}
				}
			}
			scans.Add(1)
			started()
		}
	}()

	writeWg.Wait()
	stop.Store(true)
	bgWg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
	if t.Failed() {
		return
	}

	want, _ := committed()
	if want != writers*perWriter {
		t.Fatalf("%d keys inserted, want %d", want, writers*perWriter)
	}
	if got := s.Len(); got != want {
		t.Fatalf("Len = %d, want %d", got, want)
	}
	for k := uint64(0); k < want; k++ {
		if v, found := s.Get(k); !found || v != k+1 {
			t.Fatalf("Get(%d) = (%d,%v) after the dust settled", k, v, found)
		}
	}
	st := tm.Stats()
	grows := s.Grows()
	if grows < 4*3 {
		t.Fatalf("%d growths, want every shard grown at least 3 times", grows)
	}
	if st.Reconfigs == 0 || scans.Load() == 0 {
		t.Fatalf("%d moves and %d scans during the growths, want both > 0", st.Reconfigs, scans.Load())
	}
	// Every growth and every move raised the barrier once; a growth that
	// found its shard already grown raised it too.
	if f := o.FreezeNs.Snapshot().Count; f < grows+st.Reconfigs {
		t.Fatalf("%d freezes for %d growths and %d moves", f, grows, st.Reconfigs)
	}
	t.Logf("%d growths, %d moves, %d scans, %d commits, %d aborts", grows, st.Reconfigs, scans.Load(), st.Commits, st.Aborts)
}

// TestGrowFailureIsBestEffort sizes the arena so every 3-word node still
// fits but the quadrupled 512-word directory cannot: growth must fail
// silently (the insert already committed) and the store must keep
// serving with longer chains instead of panicking out of Put.
func TestGrowFailureIsBestEffort(t *testing.T) {
	// 1 reserved word + 8 header + 128 dir + n*3 nodes; at the growth
	// trigger (count 513) the free space is ~24 words < 512.
	tm := core.MustNew(core.Config{Space: mem.NewSpace(1700)})
	s := NewStore[*core.Tx](tm, 1, 128)
	defer s.Close()
	const n = 518
	for k := uint64(0); k < n; k++ {
		s.Put(k, k+1) // must not panic even after growth starts failing
	}
	tx := tm.NewTx()
	defer tx.Release()
	var count, buckets uint64
	tm.AtomicRO(tx, func(tx *core.Tx) { count, buckets = s.Map().ShardLoad(tx, 0) })
	if buckets != 128 {
		t.Fatalf("directory grew to %d buckets in a full arena", buckets)
	}
	if count != n {
		t.Fatalf("count = %d, want %d", count, n)
	}
	for k := uint64(0); k < n; k++ {
		if v, found := s.Get(k); !found || v != k+1 {
			t.Fatalf("Get(%d) = (%d,%v) after failed growth", k, v, found)
		}
	}
}

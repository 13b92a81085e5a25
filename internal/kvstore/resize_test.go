package kvstore

import (
	"sync"
	"sync/atomic"
	"testing"

	"tinystm/internal/core"
	"tinystm/internal/mem"
	"tinystm/internal/rng"
)

// TestResizeUnderLoad stresses the freeze/rehash path: inserters push
// every shard through multiple directory growths while readers hammer
// already-inserted keys. A reader racing a Grow must either see the old
// directory or the new one — a key observed missing after its insert
// committed means the rehash tore.
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

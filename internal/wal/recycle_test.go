package wal

import (
	"path"
	"sync"
	"sync/atomic"
	"testing"

	"tinystm/internal/txn"
)

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// recycledOp is op j of appender w's record r: a key and a value no other
// record has, so a record that came back with a neighbour's ops shows.
func recycledOp(w, r, j int) txn.RedoOp {
	k := uint64(w)<<48 | uint64(r)<<16 | uint64(j)
	return put(k, k*0x9e3779b97f4a7c15)
}

// TestRecycledOpBuffersKeepTheirRecords: appenders on several goroutines
// stage point records (1–2 ops, kept in the ticket) and 1 024-op records
// (staged in buffers the flusher takes back as soon as their batch is
// encoded) while the flusher runs, each refilling one ops slice of its own
// as a transaction descriptor does. After Close, every record comes back
// from the segments exactly once, with its own ops: a buffer handed back
// before its batch was encoded is refilled by another appender's record
// first.
func TestRecycledOpBuffersKeepTheirRecords(t *testing.T) {
	fs := NewMemFS()
	l := openTest(t, fs, "wal", Config{})
	const appenders, rounds, bulk = 4, 96, 1024
	type staged struct{ w, r, n int }
	var (
		clock   atomic.Uint64
		mu      sync.Mutex
		byTS    = map[uint64]staged{}
		tickets []*Pending
		wg      sync.WaitGroup
	)
	for w := range appenders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ops := make([]txn.RedoOp, bulk)
			for r := range rounds {
				n := bulk
				if r%3 != 0 {
					n = 1 + r%2
				}
				for j := range n {
					ops[j] = recycledOp(w, r, j)
				}
				ts := clock.Add(1)
				p := l.Append(0, ts, ops[:n])
				mu.Lock()
				byTS[ts] = staged{w, r, n}
				tickets = append(tickets, p)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	for _, p := range tickets {
		if err := p.Wait(); err != nil {
			t.Fatalf("ticket resolved with %v", err)
		}
	}
	names, err := fs.ReadDir("wal")
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, name := range names {
		if _, ok := parseSegName(name); ok {
			segs = append(segs, name)
		}
	}
	seen := map[uint64]bool{}
	for i, name := range segs {
		data, err := fs.ReadFile(path.Join("wal", name))
		if err != nil {
			t.Fatal(err)
		}
		recs, torn, err := parseSegment(name, data, i == len(segs)-1)
		if err != nil || torn != 0 {
			t.Fatalf("%s: torn=%d err=%v", name, torn, err)
		}
		for _, rec := range recs {
			s, ok := byTS[rec.TS]
			if !ok || seen[rec.TS] {
				t.Fatalf("record at ts %d: staged=%v, already seen=%v", rec.TS, ok, seen[rec.TS])
			}
			seen[rec.TS] = true
			if len(rec.Ops) != s.n {
				t.Fatalf("record %d of appender %d came back with %d ops, want %d", s.r, s.w, len(rec.Ops), s.n)
			}
			for j, op := range rec.Ops {
				if want := recycledOp(s.w, s.r, j); op != want {
					t.Fatalf("record %d of appender %d, op %d: %+v, want %+v", s.r, s.w, j, op, want)
				}
			}
		}
	}
	if len(seen) != appenders*rounds {
		t.Fatalf("%d of %d records came back", len(seen), appenders*rounds)
	}
}

// TestBulkAppendAllocs: once the log's free list holds a buffer, an Append
// of a 1 024-op record allocates only its ticket — the flusher gave the
// previous record's buffer back when it encoded its batch.
func TestBulkAppendAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	l, err := open(Config{Dir: "wal", FS: NewReservingMemFS()}) // no flusher: the test drains
	if err != nil {
		t.Fatal(err)
	}
	ops := make([]txn.RedoOp, 1024)
	ts := uint64(0)
	run := func() {
		ts++
		for j := range ops {
			ops[j] = put(uint64(j), ts)
		}
		p := l.Append(0, ts, ops)
		l.commitBatch(l.takeBatch())
		if err := p.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if n := testing.AllocsPerRun(100, run); n != 1 {
		t.Errorf("Append of %d ops, then its batch: %v allocs, want 1 (the ticket)", len(ops), n)
	}
	if st := l.Stats(); st.Rotations != 0 {
		t.Fatalf("the measured batches rotated the segment %d times", st.Rotations)
	}
}

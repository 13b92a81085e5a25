package kvstore

import (
	"sync"
	"sync/atomic"
	"testing"

	"tinystm/internal/core"
	"tinystm/internal/mem"
	"tinystm/internal/rng"
)

// A shard's key count is a counter beside the Map, moved once an operation
// has committed and returned from its atomic block. These tests pin what
// it promises: exact once every operation has returned, nothing for an
// operation that panicked, recovery's keys counted, and a limited scan's
// total never below what it returned.

// churn runs writers goroutines of random point updates and short and
// bulk batches over keys [0, keys), each for ops operations or until stop
// is set.
func churn(s *Store[*core.Tx], writers int, keys uint64, ops int, stop *atomic.Bool) (wait func()) {
	var wg sync.WaitGroup
	for w := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rng.New(uint64(w + 1))
			batch := make([]Op, bulkOps)
			res := make([]OpResult, bulkOps)
			for range ops {
				if stop.Load() {
					return
				}
				switch k := r.Uint64n(keys); r.Uint64n(5) {
				case 0:
					s.Put(k, k)
				case 1:
					deleteKey(s, k)
				case 2:
					s.Add(k, 1)
				default:
					n := 4
					if r.Uint64n(8) == 0 {
						n = bulkOps // an irrevocable run
					}
					for i := range batch[:n] {
						batch[i] = Op{Kind: OpPut, Key: r.Uint64n(keys)}
						if r.Uint64n(2) == 0 {
							batch[i].Kind = OpDelete
						}
					}
					s.ApplyInto(batch[:n], res[:n])
				}
			}
		}()
	}
	return wg.Wait
}

// TestKeyCountExactAfterConcurrentWriters: four goroutines insert and
// delete the same keys with every kind of operation, growing shards as
// they go; once they have all returned, every shard's counter equals the
// keys it holds and Len their sum.
func TestKeyCountExactAfterConcurrentWriters(t *testing.T) {
	tm := newSnapTM(t, 1<<20)
	s := NewStore[*core.Tx](tm, 4, 4)
	defer s.Close()
	var stop atomic.Bool
	churn(s, 4, 2048, 20000, &stop)()
	if s.Grows() == 0 {
		t.Fatal("no shard grew: the writers did not run long enough")
	}
	pairs, _ := walkLayout(t, tm.Space(), s.Map()) // checks each shard's counter
	if n := s.Len(); n != uint64(len(pairs)) {
		t.Fatalf("Len = %d once the writers returned, the table holds %d keys", n, len(pairs))
	}
}

// TestKeyCountSkipsPanickedOps: an Update and a bulk batch that panic with
// ErrSpaceExhausted roll back and count nothing: Len still equals the keys
// the table holds. The arena is TestPanickingOperationLeaksNoDescriptor's.
func TestKeyCountSkipsPanickedOps(t *testing.T) {
	tm := core.MustNew(core.Config{Space: mem.NewSpace(1 << 12), Snapshots: true})
	s := NewStore[*core.Tx](tm, 4, 8)
	defer s.Close()
	outOfSpace := func(op string, fn func()) {
		t.Helper()
		func() {
			defer func() {
				if r := recover(); r != core.ErrSpaceExhausted {
					t.Fatalf("%s panicked with %v, want ErrSpaceExhausted", op, r)
				}
			}()
			fn()
		}()
		pairs, _ := walkLayout(t, tm.Space(), s.Map())
		if n := s.Len(); n != uint64(len(pairs)) {
			t.Fatalf("after %s panicked, Len = %d; the table holds %d keys", op, n, len(pairs))
		}
	}
	outOfSpace("an Update", func() {
		for k := uint64(0); ; k++ {
			s.Update(OpPut, k, k, 0)
		}
	})
	ops := make([]Op, 2*bulkOps)
	for i := range ops {
		ops[i] = Op{Kind: OpPut, Key: 1<<32 + uint64(i)}
	}
	res := make([]OpResult, len(ops))
	outOfSpace("a bulk ApplyInto", func() { s.ApplyInto(ops, res) })
}

// TestKeyCountOfLoad: recovery's Load counts every pair it loads, in full
// bulk batches and in the short one that ends them.
func TestKeyCountOfLoad(t *testing.T) {
	tm := newTM(t, core.WriteBack, 1<<18)
	s := NewStore[*core.Tx](tm, 4, 4)
	defer s.Close()
	want := map[uint64]uint64{}
	for k := uint64(0); k < 15*bulkOps+40; k++ {
		want[k*7] = k
	}
	s.Load(want)
	pairs, _ := walkLayout(t, tm.Space(), s.Map())
	if n := s.Len(); n != uint64(len(want)) || len(pairs) != len(want) {
		t.Fatalf("Len = %d and the table holds %d keys after loading %d", n, len(pairs), len(want))
	}
}

// TestKeyCountBoundsLimitedScan: under writers, a scan that stops at its
// limit reports a total of at least the pairs it returned, though the
// counters it falls back on may trail the table; a scan that ends before
// its limit reports exactly what it returned.
func TestKeyCountBoundsLimitedScan(t *testing.T) {
	tm := newSnapTM(t, 1<<20)
	s := NewStore[*core.Tx](tm, 4, 4)
	defer s.Close()
	const keys = 512
	for k := uint64(0); k < keys; k++ {
		s.Put(k, k)
	}
	var stop atomic.Bool
	wait := churn(s, 2, keys, 1<<30, &stop)
	defer func() {
		stop.Store(true)
		wait()
	}()
	atLimit := 0
	for i := 0; i < 2000; i++ {
		// A limit about the live count: the walk stops at it about as
		// often as not, and the counters read afterwards can be below it.
		limit := max(1, int(s.Len())+i%5-2)
		pairs, total := s.Scan(limit)
		if len(pairs) == limit {
			atLimit++
			if total < uint64(limit) {
				t.Fatalf("Scan(%d) stopped at its limit and reported a total of %d", limit, total)
			}
		} else if total != uint64(len(pairs)) {
			t.Fatalf("Scan(%d) returned %d pairs and reported a total of %d", limit, len(pairs), total)
		}
	}
	if atLimit == 0 {
		t.Fatal("no scan stopped at its limit: nothing was tested")
	}
}

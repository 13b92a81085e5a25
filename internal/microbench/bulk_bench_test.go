package microbench

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tinystm/internal/core"
	"tinystm/internal/kvstore"
	"tinystm/internal/mem"
	"tinystm/internal/rng"
)

// BenchmarkBulkCrossover is the table behind kvstore's bulkOps: one
// goroutine streams batches of k fresh-key puts, each followed by a batch
// deleting them, as one transaction (tx) or one irrevocable run (irr),
// into the 65 536 keys a bench server holds after its preload (stmkvd's
// store shape, write-back, snapshots on). ns/key is over both batches,
// streamed alone; get-p99-us is the 99th percentile of point Gets that
// another goroutine runs while the same stream is repeated. bulkOps is
// the smallest k at which irr wins both.
func BenchmarkBulkCrossover(b *testing.B) {
	for _, k := range []int{8, 16, 32, 64, 256, 1024} {
		for _, mode := range []string{"tx", "irr"} {
			b.Run(fmt.Sprintf("k=%d/%s", k, mode), func(b *testing.B) { benchBulk(b, k, mode == "irr") })
		}
	}
}

func benchBulk(b *testing.B, k int, irrevocable bool) {
	const keys = 1 << 16
	tm := core.MustNew(core.Config{Space: mem.NewSpace(1 << 22), Locks: 1 << 16, Snapshots: true})
	s := kvstore.NewStore[*core.Tx](tm, 16, 64)
	defer s.Close()
	for lo := uint64(0); lo < keys; lo += 1024 {
		s.Apply(opBatch(kvstore.OpPut, lo, 1024))
	}
	m := s.Map()
	fresh := make([]uint64, k)
	for i := range fresh {
		fresh[i] = keys + uint64(i)
	}
	ins := func(tx *core.Tx) {
		for _, key := range fresh {
			m.Put(tx, key, key)
		}
	}
	del := func(tx *core.Tx) {
		for _, key := range fresh {
			m.Delete(tx, key)
		}
	}
	tx := tm.NewTx()
	defer tx.Release()
	run := tm.Atomic
	if irrevocable {
		run = tm.Irrevocable
	}
	run(tx, ins) // grows the shards the fresh keys tip, warms the descriptor
	run(tx, del)

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(tx, ins)
		run(tx, del)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*2*k), "ns/key")

	var stop atomic.Bool
	var wg sync.WaitGroup
	lat := make([]time.Duration, 0, 1<<20)
	wg.Add(1)
	go func() {
		defer wg.Done()
		r := rng.New(1)
		for !stop.Load() {
			t0 := time.Now()
			s.Get(r.Uint64n(keys))
			if len(lat) < cap(lat) {
				lat = append(lat, time.Since(t0))
			}
		}
	}()
	for i := 0; i < b.N; i++ {
		run(tx, ins)
		run(tx, del)
	}
	stop.Store(true)
	wg.Wait()
	slices.Sort(lat)
	if len(lat) > 0 {
		b.ReportMetric(float64(lat[len(lat)*99/100].Nanoseconds())/1e3, "get-p99-us")
	}
}

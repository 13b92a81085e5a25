package harness

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"tinystm/internal/core"
	"tinystm/internal/mem"
)

func TestOpenLoopCompletesSchedule(t *testing.T) {
	var done atomic.Uint64
	res := OpenLoop{
		Rate: 2000, Duration: 200 * time.Millisecond, Workers: 4, Seed: 1,
		NewOp: func(w *Worker) (func(*Worker) error, func()) {
			return func(*Worker) error {
				done.Add(1)
				return nil
			}, nil
		},
	}.Run()
	if res.Completed != done.Load() {
		t.Fatalf("completed %d != op invocations %d", res.Completed, done.Load())
	}
	if res.Completed+res.Dropped < 300 {
		t.Fatalf("schedule too small: completed=%d dropped=%d", res.Completed, res.Dropped)
	}
	if res.Offered != res.Completed {
		t.Fatalf("offered %d != completed %d with a fast op", res.Offered, res.Completed)
	}
	if res.Throughput <= 0 || res.P50 < 0 || res.Max < res.P99 {
		t.Fatalf("implausible summary: %+v", res)
	}
}

func TestOpenLoopCountsErrorsAndDrops(t *testing.T) {
	boom := errors.New("boom")
	res := OpenLoop{
		Rate: 5000, Duration: 100 * time.Millisecond, Workers: 1, Queue: 1, Seed: 1,
		NewOp: func(w *Worker) (func(*Worker) error, func()) {
			return func(*Worker) error {
				time.Sleep(2 * time.Millisecond) // slow server: queue overflows
				return boom
			}, nil
		},
	}.Run()
	if res.Errors != res.Completed || res.Completed == 0 {
		t.Fatalf("every completion should be an error: %+v", res)
	}
	if res.Dropped == 0 {
		t.Fatalf("a saturated 1-worker/1-queue run must shed load: %+v", res)
	}
}

// TestOpenLoopTxOpReleasesDescriptors pins the cleanup half of NewOp: what a
// worker acquires for its op (here a descriptor; in the service experiments
// a connection) is handed back when the worker exits, run after run.
func TestOpenLoopTxOpReleasesDescriptors(t *testing.T) {
	tm := core.MustNew(core.Config{Space: mem.NewSpace(1 << 12)})
	addr := uint64(0)
	seedTx := tm.NewTx()
	tm.Atomic(seedTx, func(tx *core.Tx) { addr = tx.Alloc(1) })
	seedTx.Release()

	for round := 0; round < 3; round++ {
		OpenLoop{
			Rate: 20000, Duration: 20 * time.Millisecond, Workers: 8, Seed: 42,
			NewOp: func(*Worker) (func(*Worker) error, func()) {
				tx := tm.NewTx()
				return func(*Worker) error {
					tm.Atomic(tx, func(tx *core.Tx) { tx.Store(addr, tx.Load(addr)+1) })
					return nil
				}, tx.Release
			},
		}.Run()
	}
	minted, free := tm.DescriptorCounts()
	if minted > 9 { // 8 workers + the seeding descriptor
		t.Fatalf("worker descriptors not recycled: minted %d across rounds", minted)
	}
	if free != minted {
		t.Fatalf("all descriptors should be back on the free list: minted=%d free=%d", minted, free)
	}
}

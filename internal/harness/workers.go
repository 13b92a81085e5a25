package harness

import (
	"sync"
	"sync/atomic"

	"tinystm/internal/rng"
	"tinystm/internal/txn"
)

// Workers is an open-ended worker pool: unlike Bench.Run, which measures
// one fixed window, a Workers pool keeps executing the operation until
// stopped while the caller samples throughput externally (the shape the
// dynamic-tuning experiments need: the tuner reconfigures the TM while the
// workload keeps running).
type Workers struct {
	//stm:allow-atomic pool stop signal; coordinates goroutines, not STM data
	stop atomic.Bool
	wg   sync.WaitGroup
}

// StartWorkers launches threads goroutines running op in a loop.
func StartWorkers[T txn.Tx](sys txn.System[T], threads int, seed uint64, op OpFunc[T]) *Workers {
	if threads <= 0 {
		panic("harness: threads must be positive")
	}
	ws := &Workers{}
	for i := 0; i < threads; i++ {
		ws.wg.Add(1)
		go func(id int) {
			defer ws.wg.Done()
			w := &Worker{ID: id, Rng: rng.NewThread(seed, id)}
			tx := sys.NewTx()
			defer txn.Release(tx)
			for !ws.stop.Load() {
				op(w, tx)
			}
		}(i)
	}
	return ws
}

// Stop terminates the pool and waits for all workers to exit.
func (ws *Workers) Stop() {
	ws.stop.Store(true)
	ws.wg.Wait()
}

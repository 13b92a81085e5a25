// Package harness drives timed STM benchmarks: it spawns worker
// goroutines that execute a workload operation in a loop, measures
// committed-transaction throughput and abort rates from the STM's own
// counters, and renders the tables the paper's figures plot.
//
// The driver is generic over the transaction type so one driver runs every
// STM (calls through the type parameter are dictionary calls, not static
// ones; see package txn); a benchmark configuration is one Bench value.
package harness

import (
	"time"

	"tinystm/internal/rng"
	"tinystm/internal/txn"
)

// Worker carries per-thread benchmark state. The paper's update
// transactions "alternatively add a new element and remove the last
// inserted element"; LastVal/HasLast implement that alternation.
type Worker struct {
	ID  int
	Rng *rng.Rand

	LastVal uint64
	HasLast bool
}

// OpFunc performs one benchmark operation using the worker's descriptor.
type OpFunc[T txn.Tx] func(w *Worker, tx T)

// Bench describes one timed run.
type Bench[T txn.Tx] struct {
	Sys      txn.System[T]
	Threads  int
	Duration time.Duration
	// Warmup runs the workload without measuring before the timed
	// window, letting caches and allocator free lists settle.
	Warmup time.Duration
	Seed   uint64
	Op     OpFunc[T]
}

// Result summarizes a timed run.
type Result struct {
	Threads  int
	Duration time.Duration
	// Delta holds the STM counters accumulated during the measured
	// window (commits, aborts by kind, validation fast-path counters).
	Delta txn.Stats
	// Throughput is committed transactions per second.
	Throughput float64
	// AbortRate is aborts per second.
	AbortRate float64
}

// Run executes the benchmark and returns its result.
func (b Bench[T]) Run() Result {
	if b.Op == nil {
		panic("harness: Op is required")
	}

	ws := StartWorkers(b.Sys, b.Threads, b.Seed, b.Op)
	if b.Warmup > 0 {
		time.Sleep(b.Warmup)
	}
	before := b.Sys.Stats()
	t0 := time.Now()
	time.Sleep(b.Duration)
	elapsed := time.Since(t0)
	after := b.Sys.Stats()
	ws.Stop()

	delta := after.Sub(before)
	secs := elapsed.Seconds()
	return Result{
		Threads:    b.Threads,
		Duration:   elapsed,
		Delta:      delta,
		Throughput: float64(delta.Commits) / secs,
		AbortRate:  float64(delta.Aborts) / secs,
	}
}

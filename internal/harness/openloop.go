package harness

import (
	"sync"
	"time"

	"tinystm/internal/obs"
	"tinystm/internal/rng"
)

// OpenLoop drives a workload open-loop: requests arrive on a fixed
// schedule (Rate per second) regardless of whether earlier requests have
// completed, the way service traffic reaches a server. This is the dual of
// Bench.Run's closed loop, where each worker issues its next operation
// only after the previous one returns and the offered load therefore
// adapts itself to the system's speed. Under open-loop load, a slow
// configuration builds queueing delay instead of quietly offering less —
// exactly the regime an online tuner must be evaluated in.
type OpenLoop struct {
	// Rate is the arrival rate in requests per second. Required.
	Rate float64
	// Duration is the length of the arrival schedule.
	Duration time.Duration
	// Workers is the service concurrency: goroutines that pick arrivals
	// off the queue and execute them. Required.
	Workers int
	// Queue bounds the arrival queue. Arrivals that find the queue full
	// are dropped and counted (the open-loop analogue of load shedding);
	// an unbounded queue would just hide overload in memory growth.
	// Default: 4 × Workers.
	Queue int
	// Seed derives each worker's private generator.
	Seed uint64
	// NewOp builds one worker's request function and an optional cleanup
	// run when the worker exits. The error return counts failed requests
	// (e.g. HTTP errors).
	NewOp func(w *Worker) (op func(w *Worker) error, cleanup func())
}

// OpenLoopResult summarizes one open-loop run.
type OpenLoopResult struct {
	// Offered counts arrivals placed on the queue; Dropped counts
	// arrivals discarded because the queue was full. Offered + Dropped
	// is the full schedule.
	Offered, Dropped uint64
	// Completed counts requests that finished; Errors how many of those
	// returned an error.
	Completed, Errors uint64
	Elapsed           time.Duration
	// Throughput is completed requests per second of elapsed time.
	Throughput float64
	// Goodput is successfully completed requests (Completed - Errors) per
	// second of elapsed time: the number an admission-control comparison
	// must rank by, since refusing work raises Throughput's denominator
	// without serving anyone.
	Goodput float64
	// Latency quantiles, measured from scheduled arrival to completion so
	// queueing delay is included (the open-loop convention; a closed
	// loop's "service time only" latency hides overload entirely).
	P50, P95, P99, Max time.Duration
}

// Run executes the open-loop schedule and returns the summary.
func (o OpenLoop) Run() OpenLoopResult {
	if o.Rate <= 0 {
		panic("harness: OpenLoop.Rate must be positive")
	}
	if o.Workers <= 0 {
		panic("harness: OpenLoop.Workers must be positive")
	}
	if o.NewOp == nil {
		panic("harness: OpenLoop.NewOp is required")
	}
	queue := o.Queue
	if queue <= 0 {
		queue = 4 * o.Workers
	}
	hist := obs.NewHistogram()

	arrivals := make(chan time.Time, queue)
	var res OpenLoopResult
	//stm:allow-atomic merges per-worker error counts; not STM-managed state
	var mu sync.Mutex
	var errors uint64

	var wg sync.WaitGroup
	for i := 0; i < o.Workers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			w := &Worker{ID: id, Rng: rng.NewThread(o.Seed, id)}
			op, cleanup := o.NewOp(w)
			if cleanup != nil {
				defer cleanup()
			}
			var errs uint64
			for at := range arrivals {
				err := op(w)
				hist.Record(uint64(time.Since(at)))
				if err != nil {
					errs++
				}
			}
			mu.Lock()
			errors += errs
			mu.Unlock()
		}(i)
	}

	// Pacer: arrival n is scheduled at start + n/Rate. When the pacer
	// falls behind wall-clock (coarse sleeps), it emits the overdue
	// arrivals in a burst — the schedule, not the pacer's progress,
	// defines the offered load.
	interval := time.Duration(float64(time.Second) / o.Rate)
	if interval <= 0 {
		interval = time.Nanosecond
	}
	start := time.Now()
	deadline := start.Add(o.Duration)
	for next := start; next.Before(deadline); next = next.Add(interval) {
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
		select {
		case arrivals <- next:
			res.Offered++
		default:
			res.Dropped++
		}
	}
	close(arrivals)
	wg.Wait()
	res.Elapsed = time.Since(start)

	lat := hist.Snapshot()
	res.Errors = errors
	res.Completed = lat.Count
	if secs := res.Elapsed.Seconds(); secs > 0 {
		res.Throughput = float64(res.Completed) / secs
		res.Goodput = float64(res.Completed-res.Errors) / secs
	}
	if lat.Count > 0 {
		res.P50 = time.Duration(lat.Quantile(0.50))
		res.P95 = time.Duration(lat.Quantile(0.95))
		res.P99 = time.Duration(lat.Quantile(0.99))
		res.Max = time.Duration(lat.Max)
	}
	return res
}

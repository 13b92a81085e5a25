package main

import (
	"sync"
	"time"

	"tinystm/internal/obs"
	"tinystm/internal/rng"
)

// openLoop drives requests open-loop: they arrive on a fixed schedule
// (rate per second) regardless of whether earlier requests have
// completed, the way service traffic reaches a server. In a closed loop,
// where each worker issues its next request only after the previous one
// returns, the offered load adapts itself to the server's speed. Under
// open-loop load a slow configuration builds queueing delay instead of
// quietly offering less — exactly the regime an online tuner must be
// evaluated in.
type openLoop struct {
	// rate is the arrival rate in requests per second. Required.
	rate float64
	// duration is the length of the arrival schedule.
	duration time.Duration
	// workers is the service concurrency: goroutines that pick arrivals
	// off the queue and execute them. Required.
	workers int
	// queue bounds the arrival queue. Arrivals that find the queue full
	// are dropped and counted (the open-loop analogue of load shedding);
	// an unbounded queue would just hide overload in memory growth.
	// Default: 4 × workers.
	queue int
	// seed derives each worker's private generator.
	seed uint64
	// op runs one request on worker id with the worker's generator. Its
	// error counts a failed request (an HTTP error, say).
	op func(id int, r *rng.Rand) error
}

// openLoopResult summarizes one open-loop run.
type openLoopResult struct {
	// offered counts arrivals placed on the queue; dropped counts
	// arrivals discarded because the queue was full. offered + dropped
	// is the full schedule.
	offered, dropped uint64
	// completed counts requests that finished; errors how many of those
	// returned an error.
	completed, errors uint64
	elapsed           time.Duration
	// throughput is completed requests per second of elapsed time.
	throughput float64
	// goodput is successfully completed requests (completed - errors) per
	// second of elapsed time: the number an admission-control comparison
	// must rank by, since refusing work raises throughput's denominator
	// without serving anyone.
	goodput float64
	// Latency quantiles, measured from scheduled arrival to completion so
	// queueing delay is included (the open-loop convention; a closed
	// loop's "service time only" latency hides overload entirely).
	p50, p95, p99, max time.Duration
}

// run executes the open-loop schedule and returns the summary.
func (o openLoop) run() openLoopResult {
	if o.rate <= 0 {
		panic("stmkv-loadgen: openLoop.rate must be positive")
	}
	if o.workers <= 0 {
		panic("stmkv-loadgen: openLoop.workers must be positive")
	}
	queue := o.queue
	if queue <= 0 {
		queue = 4 * o.workers
	}
	hist := obs.NewHistogram()

	arrivals := make(chan time.Time, queue)
	var res openLoopResult
	//stm:allow-atomic merges per-worker error counts; the loadgen process runs no STM
	var mu sync.Mutex

	var wg sync.WaitGroup
	for i := 0; i < o.workers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			r := rng.NewThread(o.seed, id)
			var errs uint64
			for at := range arrivals {
				err := o.op(id, r)
				hist.Record(uint64(time.Since(at)))
				if err != nil {
					errs++
				}
			}
			mu.Lock()
			res.errors += errs
			mu.Unlock()
		}(i)
	}

	// Pacer: arrival n is scheduled at start + n/rate. When the pacer
	// falls behind wall-clock (coarse sleeps), it emits the overdue
	// arrivals in a burst — the schedule, not the pacer's progress,
	// defines the offered load.
	interval := time.Duration(float64(time.Second) / o.rate)
	if interval <= 0 {
		interval = time.Nanosecond
	}
	start := time.Now()
	deadline := start.Add(o.duration)
	for next := start; next.Before(deadline); next = next.Add(interval) {
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
		select {
		case arrivals <- next:
			res.offered++
		default:
			res.dropped++
		}
	}
	close(arrivals)
	wg.Wait()
	res.elapsed = time.Since(start)

	lat := hist.Snapshot()
	res.completed = lat.Count
	if secs := res.elapsed.Seconds(); secs > 0 {
		res.throughput = float64(res.completed) / secs
		res.goodput = float64(res.completed-res.errors) / secs
	}
	if lat.Count > 0 {
		res.p50 = time.Duration(lat.Quantile(0.50))
		res.p95 = time.Duration(lat.Quantile(0.95))
		res.p99 = time.Duration(lat.Quantile(0.99))
		res.max = time.Duration(lat.Max)
	}
	return res
}

package main

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"tinystm/internal/rng"
)

func TestOpenLoopCompletesSchedule(t *testing.T) {
	var done atomic.Uint64
	res := openLoop{
		rate: 2000, duration: 200 * time.Millisecond, workers: 4, seed: 1,
		op: func(int, *rng.Rand) error {
			done.Add(1)
			return nil
		},
	}.run()
	if res.completed != done.Load() {
		t.Fatalf("completed %d != op invocations %d", res.completed, done.Load())
	}
	if res.completed+res.dropped < 300 {
		t.Fatalf("schedule too small: completed=%d dropped=%d", res.completed, res.dropped)
	}
	if res.offered != res.completed {
		t.Fatalf("offered %d != completed %d with a fast op", res.offered, res.completed)
	}
	if res.throughput <= 0 || res.p50 < 0 || res.max < res.p99 {
		t.Fatalf("implausible summary: %+v", res)
	}
}

func TestOpenLoopCountsErrorsAndDrops(t *testing.T) {
	boom := errors.New("boom")
	res := openLoop{
		rate: 5000, duration: 100 * time.Millisecond, workers: 1, queue: 1, seed: 1,
		op: func(int, *rng.Rand) error {
			time.Sleep(2 * time.Millisecond) // slow server: queue overflows
			return boom
		},
	}.run()
	if res.errors != res.completed || res.completed == 0 {
		t.Fatalf("every completion should be an error: %+v", res)
	}
	if res.dropped == 0 {
		t.Fatalf("a saturated 1-worker/1-queue run must shed load: %+v", res)
	}
}

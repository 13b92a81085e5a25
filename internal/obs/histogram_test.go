package obs

import (
	"math/rand"
	"sync"
	"testing"
)

func TestBucketIndexExactLowRange(t *testing.T) {
	for v := uint64(0); v < subBuckets; v++ {
		if got := bucketIndex(v); got != int(v) {
			t.Fatalf("bucketIndex(%d) = %d, want exact", v, got)
		}
		if up := bucketUpper(int(v)); up != v {
			t.Fatalf("bucketUpper(%d) = %d, want %d", v, up, v)
		}
	}
}

func TestBucketIndexMonotoneAndBounded(t *testing.T) {
	// Every value maps inside [0, NumBuckets); indices are monotone in
	// the value; the value never exceeds its bucket's upper bound.
	vals := []uint64{0, 1, 31, 32, 33, 63, 64, 65, 127, 128, 1000, 1 << 20, 1<<40 + 12345, 1<<63 - 1, 1 << 63, ^uint64(0)}
	prev := -1
	for _, v := range vals {
		i := bucketIndex(v)
		if i < 0 || i >= NumBuckets {
			t.Fatalf("bucketIndex(%d) = %d out of range [0,%d)", v, i, NumBuckets)
		}
		if i < prev {
			t.Fatalf("bucketIndex not monotone at %d", v)
		}
		prev = i
		if up := bucketUpper(i); up < v {
			t.Fatalf("value %d above its bucket upper %d (bucket %d)", v, up, i)
		}
	}
	if bucketIndex(^uint64(0)) != NumBuckets-1 {
		t.Fatalf("max uint64 must land in the last bucket, got %d", bucketIndex(^uint64(0)))
	}
}

func TestBucketRelativeError(t *testing.T) {
	// Log-linear guarantee: the bucket upper bound overestimates a
	// contained value by at most 1/subBuckets (plus rounding).
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 10000; i++ {
		v := uint64(rng.Int63())
		up := bucketUpper(bucketIndex(v))
		if float64(up-v) > float64(v)/subBuckets+1 {
			t.Fatalf("value %d: upper %d exceeds %.1f%% relative error", v, up, 100.0/subBuckets)
		}
	}
}

func TestQuantileUniform(t *testing.T) {
	h := NewHistogram()
	for v := uint64(1); v <= 100_000; v++ {
		h.Record(v)
	}
	s := h.Snapshot()
	if s.Count != 100_000 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.Max != 100_000 {
		t.Fatalf("max = %d", s.Max)
	}
	for _, tc := range []struct {
		q    float64
		want uint64
	}{{0.50, 50_000}, {0.95, 95_000}, {0.99, 99_000}, {1.0, 100_000}} {
		got := s.Quantile(tc.q)
		lo := tc.want - tc.want/subBuckets - 1
		hi := tc.want + tc.want/subBuckets + tc.want/subBuckets/2 + 1
		if got < lo || got > hi {
			t.Errorf("q%.2f = %d, want within ~3%% of %d", tc.q, got, tc.want)
		}
	}
	if got := s.Quantile(0); got > 1+1 {
		t.Errorf("q0 = %d, want ~1", got)
	}
}

func TestQuantileEmptyAndSingle(t *testing.T) {
	h := NewHistogram()
	s := h.Snapshot()
	if s.Quantile(0.5) != 0 || s.Count != 0 {
		t.Fatal("empty histogram must report zero")
	}
	h.Record(42)
	s = h.Snapshot()
	if got := s.Quantile(0.5); got != 42 {
		t.Fatalf("single-value q50 = %d, want exactly 42 (max clamp)", got)
	}
	if got := s.Quantile(1.0); got != 42 {
		t.Fatalf("single-value q100 = %d, want 42", got)
	}
}

func TestCumulativeLE(t *testing.T) {
	h := NewHistogram()
	for _, v := range []uint64{1, 2, 3, 10, 100, 1000, 100_000} {
		h.Record(v)
	}
	s := h.Snapshot()
	for _, tc := range []struct {
		bound, want uint64
	}{{0, 0}, {1, 1}, {3, 3}, {9, 4 - 1}, {10, 4}, {999, 5}, {^uint64(0), 7}} {
		if got := s.CumulativeLE(tc.bound); got != tc.want {
			t.Errorf("CumulativeLE(%d) = %d, want %d", tc.bound, got, tc.want)
		}
	}
}

// TestConcurrentRecordMerge hammers one histogram from many goroutines
// (run under -race in CI) and checks nothing is lost: the bucket totals,
// count, sum and max must all reconcile exactly once the writers stop.
func TestConcurrentRecordMerge(t *testing.T) {
	h := NewHistogram()
	const workers = 8
	const perWorker = 20_000
	var wg sync.WaitGroup
	var wantSum uint64
	var mu sync.Mutex
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			var localSum uint64
			for i := 0; i < perWorker; i++ {
				v := uint64(rng.Int63n(1 << 30))
				h.Record(v)
				localSum += v
			}
			mu.Lock()
			wantSum += localSum
			mu.Unlock()
		}(int64(w))
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != workers*perWorker {
		t.Fatalf("count = %d, want %d (lost updates)", s.Count, workers*perWorker)
	}
	if s.Sum != wantSum {
		t.Fatalf("sum = %d, want %d", s.Sum, wantSum)
	}
	var bucketTotal uint64
	for _, c := range s.Counts {
		bucketTotal += c
	}
	if bucketTotal != s.Count {
		t.Fatalf("bucket total %d != count %d", bucketTotal, s.Count)
	}
	if s.Max == 0 || s.Max >= 1<<30 {
		t.Fatalf("max = %d out of recorded range", s.Max)
	}
	if q := s.Quantile(0.5); q == 0 || q > 1<<30 {
		t.Fatalf("q50 = %d implausible for uniform [0,2^30)", q)
	}
}

// TestRecordAllocFree pins the record-path allocation contract.
func TestRecordAllocFree(t *testing.T) {
	h := NewHistogram()
	if n := testing.AllocsPerRun(1000, func() { h.Record(12345) }); n != 0 {
		t.Fatalf("Record allocates %v times per op, want 0", n)
	}
}

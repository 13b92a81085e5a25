package obs

import (
	"runtime"
	"sync"
	"testing"
)

// groupValues returns two values in each bucket group's range up to bit
// length maxLen, the exact low range included.
func groupValues(maxLen int) []uint64 {
	vs := []uint64{0, subBuckets - 1}
	for n := subBits + 1; n <= maxLen; n++ {
		lo := uint64(1) << (n - 1)
		vs = append(vs, lo, lo|lo>>1|1)
	}
	return vs
}

// TestFirstRecordsLoseNoCount: goroutines that race to record into the
// same untouched bucket groups — each first record allocates a group and
// installs it by CAS — and goroutines that each start a group of their
// own lose no count. Per-bucket counts, Count, Sum and Max equal those of
// the same observations recorded serially.
func TestFirstRecordsLoseNoCount(t *testing.T) {
	shared := groupValues(32)
	const workers, rounds = 8, 200
	for round := range rounds {
		h, serial := NewHistogram(), NewHistogram()
		start := make(chan struct{})
		var wg sync.WaitGroup
		for w := range workers {
			// Worker w's own value: in the group of bit length 40+w,
			// which no other worker touches.
			own := uint64(1)<<(39+w) + uint64(round)
			for _, v := range shared {
				serial.Record(v)
			}
			serial.Record(own)
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for _, v := range shared {
					h.Record(v)
				}
				h.Record(own)
			}()
		}
		close(start)
		wg.Wait()
		got, want := h.Snapshot(), serial.Snapshot()
		if got.Count != want.Count || got.Sum != want.Sum || got.Max != want.Max {
			t.Fatalf("round %d: count/sum/max %d/%d/%d, want %d/%d/%d",
				round, got.Count, got.Sum, got.Max, want.Count, want.Sum, want.Max)
		}
		for i := range got.Counts {
			if got.Counts[i] != want.Counts[i] {
				t.Fatalf("round %d: bucket %d counts %d, want %d", round, i, got.Counts[i], want.Counts[i])
			}
		}
	}
}

// TestWarmedRecordAllocFree: once every bucket group holds a count,
// records across all of them allocate nothing.
func TestWarmedRecordAllocFree(t *testing.T) {
	h := NewHistogram()
	vs := groupValues(64)
	for _, v := range vs {
		h.Record(v)
	}
	if n := testing.AllocsPerRun(100, func() {
		for _, v := range vs {
			h.Record(v)
		}
	}); n != 0 {
		t.Fatalf("%d records into warmed groups allocate %v times, want 0", len(vs), n)
	}
}

// TestUntouchedHistogramIsSmall: a histogram nobody recorded into holds
// no counters — at most 1 KiB, where one with every counter costs ~15 KiB.
func TestUntouchedHistogramIsSmall(t *testing.T) {
	const n = 64
	hs := make([]*Histogram, 0, n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range n {
		hs = append(hs, NewHistogram())
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per > 1024 {
		t.Fatalf("NewHistogram allocates %d B, want at most 1024", per)
	}
	runtime.KeepAlive(hs)
}

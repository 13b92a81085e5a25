package obs

import (
	"testing"

	"tinystm/internal/txn"
)

// The ObsRecord* benchmarks pin the record path: it must stay at
// single-digit-nanosecond cost so instrumentation can sit
// inside the STM commit path without perturbing what it measures.

func BenchmarkObsRecord(b *testing.B) {
	h := NewHistogram()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Record(uint64(i)<<8 + 137)
	}
}

func BenchmarkObsRecordSample(b *testing.B) {
	r := NewRecorder(4096, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = r.Sample()
	}
}

func BenchmarkObsRecordFlight(b *testing.B) {
	r := NewRecorder(4096, 1)
	e := Event{TimeUnixNano: 1, Kind: EvCommit, Slot: 3, Attempt: 1, DurNs: 1200, Locks: 1 << 20}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Record(e)
	}
}

func BenchmarkObsRecordTMAbort(b *testing.B) {
	o := NewTMObs(nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o.OnAbort(uint64(i), txn.AbortReadConflict)
	}
}

// Parallel contention picture; intentionally named outside the ObsRecord
// prefix (throughput under contention is machine-shaped).
func BenchmarkObsParallelHistogram(b *testing.B) {
	h := NewHistogram()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		v := uint64(0)
		for pb.Next() {
			v += 997
			h.Record(v)
		}
	})
}

func BenchmarkObsParallelFlight(b *testing.B) {
	r := NewRecorder(4096, 1)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		e := Event{Kind: EvCommit, DurNs: 1}
		for pb.Next() {
			r.Record(e)
		}
	})
}

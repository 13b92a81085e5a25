// Commit-clock and read-path microbenchmarks.
//
// The clock benchmarks isolate the cost of the shared commit counter:
// BenchmarkCommitClockSerial is the uncontended per-commit cost, while
// BenchmarkCommitClockParallel hammers disjoint counters from every
// processor so the shared clock line is the only contended state — the
// regime the paper's Section 3.1 clock-management discussion is about.
// Both were once split per commit-clock strategy; their names lost the
// /fetchinc suffix when the shared counter became the only clock, so an
// older result file lists these rows as .../fetchinc.
//
// The read-set benchmarks measure duplicate-read suppression:
// BenchmarkReadSetDuplicates re-reads one stripe (the suppressed case,
// read set stays at one entry) versus BenchmarkReadSetDistinct touching
// as many distinct stripes (nothing suppressible), with update commits so
// the recorded entries also pay their validation cost.
package microbench

import (
	"testing"

	"tinystm/internal/core"
	"tinystm/internal/mem"
)

func clockTM() (*core.TM, uint64) {
	sp := mem.NewSpace(1 << 20)
	tm := core.MustNew(core.Config{Space: sp, Locks: 1 << 16})
	tx := tm.NewTx()
	var base uint64
	tm.Atomic(tx, func(tx *core.Tx) {
		base = tx.Alloc(1 << 10)
		for i := uint64(0); i < 1<<10; i++ {
			tx.Store(base+i, 0)
		}
	})
	return tm, base
}

func BenchmarkCommitClockSerial(b *testing.B) {
	tm, base := clockTM()
	tx := tm.NewTx()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm.Atomic(tx, func(tx *core.Tx) {
			tx.Store(base, tx.Load(base)+1)
		})
	}
}

func BenchmarkCommitClockParallel(b *testing.B) {
	tm, base := clockTM()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		tx := tm.NewTx()
		// Disjoint cache-line-spread counters: commits never conflict on
		// data, so the clock is the only shared write.
		mine := base + (uint64(tx.Slot())*8)%(1<<10)
		for pb.Next() {
			tm.Atomic(tx, func(tx *core.Tx) {
				tx.Store(mine, tx.Load(mine)+1)
			})
		}
	})
}

func readSetTM() (*core.TM, uint64) {
	sp := mem.NewSpace(1 << 20)
	tm := core.MustNew(core.Config{Space: sp, Locks: 1 << 16})
	tx := tm.NewTx()
	var base uint64
	tm.Atomic(tx, func(tx *core.Tx) {
		base = tx.Alloc(256)
		for i := uint64(0); i < 256; i++ {
			tx.Store(base+i, uint64(i))
		}
	})
	return tm, base
}

const readSetSpan = 64

func BenchmarkReadSetDuplicates(b *testing.B) {
	tm, base := readSetTM()
	tx := tm.NewTx()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm.Atomic(tx, func(tx *core.Tx) {
			var s uint64
			for j := 0; j < readSetSpan; j++ {
				s += tx.Load(base) // same stripe: suppressed after the first
			}
			tx.Store(base+128, s)
		})
	}
}

func BenchmarkReadSetDistinct(b *testing.B) {
	tm, base := readSetTM()
	tx := tm.NewTx()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm.Atomic(tx, func(tx *core.Tx) {
			var s uint64
			for j := uint64(0); j < readSetSpan; j++ {
				s += tx.Load(base + j) // distinct stripes: all recorded
			}
			tx.Store(base+128, s)
		})
	}
}

// Package tinystm's root benchmark harness: one testing.B benchmark per
// figure of the paper's evaluation. Each benchmark executes the
// corresponding experiment runner from internal/experiments at a reduced
// scale and reports the headline throughput as a custom metric
// (txs/sec). For paper-scale runs use `stmbench -fig N`; both paths share
// all experiment code, so the benchmarks double as end-to-end regression
// checks for every figure.
package tinystm

import (
	"testing"
	"time"

	"tinystm/internal/core"
	"tinystm/internal/experiments"
	"tinystm/internal/harness"
	"tinystm/internal/tuning"
	"tinystm/internal/vacation"
)

// benchScale keeps each figure reproduction around a hundred
// milliseconds so `go test -bench=.` finishes promptly.
func benchScale() experiments.Scale {
	return experiments.Scale{
		Duration:   20 * time.Millisecond,
		Warmup:     5 * time.Millisecond,
		Threads:    []int{1, 2},
		Seed:       42,
		SpaceWords: 1 << 20,
	}
}

// lastPoint extracts the highest-thread TinySTM-WB value of a series.
func lastPoint(r experiments.ThreadSeries) float64 {
	return r.Values[len(r.Values)-1][0]
}

func BenchmarkFig02RBTree256u20(b *testing.B) {
	sc := benchScale()
	var tp float64
	for i := 0; i < b.N; i++ {
		tp = lastPoint(experiments.Figure2(sc, 256, 20))
	}
	b.ReportMetric(tp, "txs/s")
}

func BenchmarkFig02RBTree4096u20(b *testing.B) {
	sc := benchScale()
	var tp float64
	for i := 0; i < b.N; i++ {
		tp = lastPoint(experiments.Figure2(sc, 4096, 20))
	}
	b.ReportMetric(tp, "txs/s")
}

func BenchmarkFig02RBTree4096u60(b *testing.B) {
	sc := benchScale()
	var tp float64
	for i := 0; i < b.N; i++ {
		tp = lastPoint(experiments.Figure2(sc, 4096, 60))
	}
	b.ReportMetric(tp, "txs/s")
}

func BenchmarkFig03List256u0(b *testing.B) {
	sc := benchScale()
	var tp float64
	for i := 0; i < b.N; i++ {
		tp = lastPoint(experiments.Figure3(sc, 256, 0))
	}
	b.ReportMetric(tp, "txs/s")
}

func BenchmarkFig03List256u20(b *testing.B) {
	sc := benchScale()
	var tp float64
	for i := 0; i < b.N; i++ {
		tp = lastPoint(experiments.Figure3(sc, 256, 20))
	}
	b.ReportMetric(tp, "txs/s")
}

func BenchmarkFig03List4096u20(b *testing.B) {
	sc := benchScale()
	var tp float64
	for i := 0; i < b.N; i++ {
		tp = lastPoint(experiments.Figure3(sc, 4096, 20))
	}
	b.ReportMetric(tp, "txs/s")
}

func BenchmarkFig04AbortsRBTree(b *testing.B) {
	sc := benchScale()
	sc.YieldEvery = 4 // conflicts need interleaving on few-core hosts
	var rate float64
	for i := 0; i < b.N; i++ {
		rate = lastPoint(experiments.Figure4Aborts(sc, harness.KindRBTree, 4096, 20))
	}
	b.ReportMetric(rate, "aborts/s")
}

func BenchmarkFig04AbortsList(b *testing.B) {
	sc := benchScale()
	sc.YieldEvery = 4
	var rate float64
	for i := 0; i < b.N; i++ {
		rate = lastPoint(experiments.Figure4Aborts(sc, harness.KindList, 256, 20))
	}
	b.ReportMetric(rate, "aborts/s")
}

func BenchmarkFig04Overwrite(b *testing.B) {
	sc := benchScale()
	sc.Duration = 40 * time.Millisecond // abort-heavy: ensure commits land
	var tp float64
	for i := 0; i < b.N; i++ {
		tp = lastPoint(experiments.Figure4Overwrite(sc, 256, 5))
	}
	b.ReportMetric(tp, "txs/s")
}

func BenchmarkFig05SizeUpdateSurface(b *testing.B) {
	sc := benchScale()
	var tp float64
	for i := 0; i < b.N; i++ {
		r := experiments.Figure5(sc, harness.KindRBTree, []int{256, 1024}, []int{0, 20})
		tp = r.Values[0][0][0]
	}
	b.ReportMetric(tp, "txs/s")
}

func BenchmarkFig06LocksShiftsSweep(b *testing.B) {
	sc := benchScale()
	var tp float64
	for i := 0; i < b.N; i++ {
		r := experiments.Figure6(sc, harness.KindRBTree, []int{8, 12}, []uint{0, 2})
		_, tp = r.Best()
	}
	b.ReportMetric(tp, "txs/s")
}

func BenchmarkFig07Vacation(b *testing.B) {
	sc := benchScale()
	sc.Duration = 40 * time.Millisecond
	vp := vacation.Params{Relations: 256, QueryPct: 90, UserPct: 80, QueriesPerTx: 2}
	var tp float64
	for i := 0; i < b.N; i++ {
		r := experiments.Figure7(sc, vp, []int{12, 14}, []uint{0, 2})
		_, tp = r.Best()
	}
	b.ReportMetric(tp, "txs/s")
}

func BenchmarkFig08HierSweep(b *testing.B) {
	sc := benchScale()
	var tp float64
	for i := 0; i < b.N; i++ {
		r := experiments.Figure8(sc, harness.KindList, []int{10}, []uint{0})
		_, tp = r.Best()
	}
	b.ReportMetric(tp, "txs/s")
}

func BenchmarkFig09Improvement(b *testing.B) {
	sc := benchScale()
	sc.Duration = 50 * time.Millisecond // short windows inflate min-relative %
	sc.Repeats = 2
	var max float64
	for i := 0; i < b.N; i++ {
		max = 0
		c := experiments.Figure9Locks(sc, []int{8, 12})
		for _, s := range c.Series {
			for _, v := range s {
				if v > max {
					max = v
				}
			}
		}
	}
	b.ReportMetric(max, "improvement-%")
}

// tuneBenchScale enables interleaving so validation (and its fast path)
// actually runs during tuning benches.
func tuneBenchScale() experiments.Scale {
	sc := benchScale()
	sc.YieldEvery = 4
	return sc
}

// tuneBenchConfig is the Figure 10-12 experiment at bench scale: the
// tuning runtime over one steady workload, no static baselines.
func tuneBenchConfig(kind harness.Kind) experiments.AutotuneConfig {
	return experiments.AutotuneConfig{
		Phases:  []harness.IntsetParams{{Kind: kind, InitialSize: 256, UpdatePct: 20}},
		Threads: 2, Periods: 6, Period: 5 * time.Millisecond, Samples: 2,
		Start: core.Params{Locks: 1 << 8, Shifts: 0, Hier: 1},
		Bounds: tuning.Bounds{
			MinLocks: 1 << 6, MaxLocks: 1 << 14,
			MinShifts: 0, MaxShifts: 4, MinHier: 1, MaxHier: 64,
		},
		Seed: 42,
	}
}

func BenchmarkFig10TuningRBTree(b *testing.B) {
	sc := tuneBenchScale()
	var tp float64
	for i := 0; i < b.N; i++ {
		r := experiments.AutotuneSweep(sc, tuneBenchConfig(harness.KindRBTree))
		tp = r.BestTp
	}
	b.ReportMetric(tp, "txs/s")
}

func BenchmarkFig11TuningList(b *testing.B) {
	sc := tuneBenchScale()
	var tp float64
	for i := 0; i < b.N; i++ {
		r := experiments.AutotuneSweep(sc, tuneBenchConfig(harness.KindList))
		tp = r.BestTp
	}
	b.ReportMetric(tp, "txs/s")
}

func BenchmarkFig12ValidationCounters(b *testing.B) {
	sc := tuneBenchScale()
	var skipped float64
	for i := 0; i < b.N; i++ {
		r := experiments.AutotuneSweep(sc, tuneBenchConfig(harness.KindList))
		for _, v := range r.Validation {
			skipped += v.SkippedPerSec
		}
	}
	b.ReportMetric(skipped, "skipped-locks/s")
}

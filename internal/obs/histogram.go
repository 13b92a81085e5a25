// Package obs is the observability layer: lock-free log-linear
// histograms, a dependency-free Prometheus text-format registry, and a
// sampled per-transaction flight recorder. Everything on a record path
// is wait-free (a handful of uncontended atomic adds), allocation-free
// and safe for any number of concurrent writers — it is designed to sit
// inside the STM commit path, the WAL flusher and the server's request
// handlers without perturbing what it measures.
//
// The paper's whole premise is an STM that watches itself run; this
// package is where the watching happens. Aggregate counters answer "how
// much", the histograms answer "how slow at which quantile", and the
// flight recorder answers the forensic "what exactly did transaction X
// live through" that neither can.
package obs

import (
	"math/bits"
	"sync/atomic"
)

// The histogram is HDR-style log-linear: values below subBuckets are
// recorded exactly; above that, each power-of-two range is split into
// subBuckets linear sub-buckets, so the relative quantile error is
// bounded by 1/subBuckets (~3%) across the whole uint64 range. Bucket
// index computation is one bits.Len64 plus shifts — O(1), no loops.
const (
	subBits    = 5
	subBuckets = 1 << subBits // 32 linear sub-buckets per power of two
	// groups covers bit lengths subBits+1 .. 64.
	groups = 64 - subBits
	// NumBuckets is the fixed bucket count of every Histogram (~15 KiB
	// of counters).
	NumBuckets = subBuckets + groups*subBuckets
)

// bucketIndex maps a value to its bucket. Exact for v < subBuckets.
func bucketIndex(v uint64) int {
	if v < subBuckets {
		return int(v)
	}
	n := bits.Len64(v) // subBits+1 .. 64
	shift := uint(n - subBits - 1)
	sub := v >> shift // in [subBuckets, 2*subBuckets)
	return int(shift)*subBuckets + int(sub)
}

// bucketUpper returns the largest value the bucket holds (its inclusive
// upper bound — the quantile estimate reported for hits in it).
func bucketUpper(i int) uint64 {
	if i < subBuckets {
		return uint64(i)
	}
	g := uint(i/subBuckets - 1)
	sub := uint64(i%subBuckets) + subBuckets
	return (sub+1)<<g - 1
}

// Histogram is a fixed-layout log-linear histogram with atomic-counter
// buckets. Record is O(1), lock-free and allocation-free; Snapshot gives
// a consistent-enough point-in-time copy for quantile extraction,
// merging and period deltas. The zero value is ready to use, but a
// Histogram must not be copied after first use — always share pointers.
type Histogram struct {
	counts [NumBuckets]atomic.Uint64
	sum    atomic.Uint64
	max    atomic.Uint64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// Record adds one observation. Wait-free: two atomic adds plus a
// load-then-CAS max update that almost always skips the CAS.
func (h *Histogram) Record(v uint64) {
	h.counts[bucketIndex(v)].Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur {
			return
		}
		if h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Snapshot copies the counters. Buckets are read individually (no global
// lock), so a snapshot taken under concurrent recording is a slightly
// torn but monotone view — fine for monitoring: a later snapshot of the
// same histogram never counts less in any bucket.
func (h *Histogram) Snapshot() Snapshot {
	var s Snapshot
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Counts[i] = c
		s.Count += c
	}
	s.Sum = h.sum.Load()
	s.Max = h.max.Load()
	return s
}

// Snapshot is a point-in-time copy of a Histogram: plain counters,
// shareable off the hot path.
type Snapshot struct {
	Counts [NumBuckets]uint64
	// Count is the total number of observations and Sum their sum; Max
	// is the exact largest value recorded.
	Count, Sum, Max uint64
}

// Quantile returns the q-quantile (q in [0,1]) as the upper bound of the
// bucket holding it, clamped to the exact recorded Max. Zero when empty.
func (s *Snapshot) Quantile(q float64) uint64 {
	if s.Count == 0 {
		return 0
	}
	rank := uint64(q * float64(s.Count))
	if rank >= s.Count {
		rank = s.Count - 1
	}
	var cum uint64
	for i := range s.Counts {
		cum += s.Counts[i]
		if cum > rank {
			u := bucketUpper(i)
			if u > s.Max {
				u = s.Max
			}
			return u
		}
	}
	return s.Max
}

// CumulativeLE returns how many observations were <= bound — the
// Prometheus `le` bucket semantics. Buckets are ~3% wide, so a bound
// falling inside one is answered with the count up to the bucket BELOW
// it (never an overcount).
func (s *Snapshot) CumulativeLE(bound uint64) uint64 {
	i := bucketIndex(bound)
	if bucketUpper(i) > bound {
		i--
	}
	var cum uint64
	for j := 0; j <= i; j++ {
		cum += s.Counts[j]
	}
	return cum
}

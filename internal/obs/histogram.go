// Package obs is the observability layer: lock-free log-linear
// histograms, a dependency-free Prometheus text-format registry, and a
// sampled per-transaction flight recorder. Everything on a record path
// is wait-free (a handful of uncontended atomic adds) and safe for any
// number of concurrent writers — it is designed to sit inside the STM
// commit path, the WAL flusher and the server's request handlers without
// perturbing what it measures. A histogram allocates its counters a group
// of 32 at a time, on the first record into the group, so one that is
// never recorded into costs about half a KiB; every later record into
// the group allocates nothing.
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
	// NumBuckets is the fixed bucket count of every Histogram: 60 groups
	// of subBuckets counters, 256 B each, allocated as they are first
	// recorded into (all of them: ~15 KiB).
	NumBuckets = subBuckets + groups*subBuckets
	// numGroups is how many groups of subBuckets counters a Histogram
	// has: the exact low range, then one per power of two.
	numGroups = NumBuckets / subBuckets
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
// buckets, held in groups of subBuckets that are allocated on their first
// record. Record is O(1) and lock-free, and allocation-free once its
// group exists; Snapshot gives a consistent-enough point-in-time copy for
// quantile extraction and period deltas. The zero value is ready to use,
// but a Histogram must not be copied after first use — always share
// pointers.
type Histogram struct {
	groups [numGroups]atomic.Pointer[bucketGroup]
	sum    atomic.Uint64
	max    atomic.Uint64
}

// bucketGroup holds the counters of buckets g*subBuckets .. g*subBuckets+
// subBuckets-1 of group g.
type bucketGroup [subBuckets]atomic.Uint64

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// Record adds one observation. Wait-free: two atomic adds plus a
// load-then-CAS max update that almost always skips the CAS; the first
// record into a group adds one allocation and one CAS.
func (h *Histogram) Record(v uint64) {
	i := uint(bucketIndex(v))
	g := h.groups[i/subBuckets].Load()
	if g == nil {
		g = h.group(i / subBuckets)
	}
	g[i%subBuckets].Add(1)
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

// group returns group gi, allocating it. Of the records that race to
// allocate it, one CAS installs its group and the others count into that
// one, so no count is lost.
func (h *Histogram) group(gi uint) *bucketGroup {
	g := new(bucketGroup)
	if h.groups[gi].CompareAndSwap(nil, g) {
		return g
	}
	return h.groups[gi].Load()
}

// Snapshot copies the counters; a group never recorded into reads as
// zeros. Buckets are read individually (no global lock), so a snapshot
// taken under concurrent recording is a slightly torn but monotone view —
// fine for monitoring: a later snapshot of the same histogram never
// counts less in any bucket.
func (h *Histogram) Snapshot() Snapshot {
	var s Snapshot
	for gi := range h.groups {
		g := h.groups[gi].Load()
		if g == nil {
			continue
		}
		for j := range g {
			c := g[j].Load()
			s.Counts[gi*subBuckets+j] = c
			s.Count += c
		}
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

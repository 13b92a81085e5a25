//go:build linux

package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// percentile returns the exact nearest-rank p-quantile (0 < p <= 1) of an
// ascending-sorted sample: the smallest value with at least p of the
// sample at or below it. An empty sample has no percentile.
func percentile(sorted []float64, p float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(p*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= n {
		rank = n - 1
	}
	return sorted[rank], true
}

func median(vals []float64) (float64, bool) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, false
	}
	if n%2 == 1 {
		return s[n/2], true
	}
	return (s[n/2-1] + s[n/2]) / 2, true
}

// quartiles returns the first and third quartile by the same rule as
// Python's statistics.quantiles(values, n=4) (the "exclusive" method), so
// compare reports the spread the way the benchmark's contract measures it.
func quartiles(vals []float64) (q1, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		// Like Python, the weight is taken after clamping j, so tiny
		// samples extrapolate past their end points.
		d := float64(i*(n+1)-j*4) / 4
		return s[j-1]*(1-d) + s[j]*d
	}
	return at(1), at(3)
}

// windowedQuantile splits a phase into nwin equal windows by each
// sample's due time, takes every window's exact q-quantile and returns the
// median of those. A stall of the shared box lands in a few windows and
// cannot move the median, which is what lets a latency metric repeat run
// to run; a slowdown that lasts is in most windows and shows. minBeyond is
// the smallest count of samples above any window's quantile.
func windowedQuantile(due, val []float64, phase float64, nwin int, q float64) (v float64, minBeyond int, ok bool) {
	wins := make([][]float64, nwin)
	for i, d := range due {
		w := int(d / phase * float64(nwin))
		if w < 0 {
			w = 0
		}
		if w >= nwin {
			w = nwin - 1
		}
		wins[w] = append(wins[w], val[i])
	}
	var qs []float64
	minBeyond = math.MaxInt
	for _, w := range wins {
		sort.Float64s(w)
		x, ok := percentile(w, q)
		if !ok {
			continue
		}
		qs = append(qs, x)
		beyond := len(w) - int(math.Ceil(q*float64(len(w))))
		if beyond < minBeyond {
			minBeyond = beyond
		}
	}
	if len(qs) == 0 {
		return 0, 0, false
	}
	v, _ = median(qs)
	return v, minBeyond, true
}

// pairedRatio is the duet's statistic. Each of sut's slices is paired with
// the slice of ref that followed it; a pair's ratio is sut's median round
// time over ref's; the result is the median over all pairs. The two halves
// of a pair are 50 ms apart, so a host that runs a third slower for a
// minute slows both and leaves the ratio where it was.
func pairedRatio(sut, ref duetSide) (ratio float64, pairs int) {
	perSlice := func(d duetSide) map[int]float64 {
		rounds := map[int][]float64{}
		for i, ms := range d.roundMs {
			rounds[d.slice[i]] = append(rounds[d.slice[i]], ms)
		}
		meds := make(map[int]float64, len(rounds))
		for sl, v := range rounds {
			meds[sl], _ = median(v)
		}
		return meds
	}
	sm, rm := perSlice(sut), perSlice(ref)
	var ratios []float64
	for sl, s := range sm {
		if r, ok := rm[sl+1]; ok && r > 0 {
			ratios = append(ratios, s/r)
		}
	}
	ratio, _ = median(ratios)
	return ratio, len(ratios)
}

// promSamples is one Prometheus text exposition, keyed by the full series
// (`name` or `name{labels}`) exactly as rendered.
type promSamples map[string]float64

func parseProm(r io.Reader) (promSamples, error) {
	out := promSamples{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("malformed exposition line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("malformed sample value in %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// sub returns after-before per series; a series absent before counts from
// zero.
func (after promSamples) sub(before promSamples) promSamples {
	d := make(promSamples, len(after))
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// seriesMatches reports whether series is `name` with every wanted
// `key="value"` label present.
func seriesMatches(series, name string, want []string) bool {
	if !strings.HasPrefix(series, name) {
		return false
	}
	rest := series[len(name):]
	if rest != "" && rest[0] != '{' {
		return false
	}
	for _, w := range want {
		if !strings.Contains(rest, w) {
			return false
		}
	}
	return true
}

// sum adds every series of name carrying all the wanted labels.
func (p promSamples) sum(name string, want ...string) float64 {
	s := 0.0
	for k, v := range p {
		if seriesMatches(k, name, want) {
			s += v
		}
	}
	return s
}

type bucket struct{ le, count float64 }

// buckets merges the cumulative `_bucket` series of histogram name (all
// series carrying the wanted labels) into one ascending bucket list.
func (p promSamples) buckets(name string, want ...string) []bucket {
	byLE := map[float64]float64{}
	for k, v := range p {
		if !seriesMatches(k, name+"_bucket", want) {
			continue
		}
		i := strings.Index(k, `le="`)
		if i < 0 {
			continue
		}
		s := k[i+4:]
		s = s[:strings.IndexByte(s, '"')]
		le := math.Inf(1)
		if s != "+Inf" {
			f, err := strconv.ParseFloat(s, 64)
			if err != nil {
				continue
			}
			le = f
		}
		byLE[le] += v
	}
	out := make([]bucket, 0, len(byLE))
	for le, c := range byLE {
		out = append(out, bucket{le, c})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].le < out[j].le })
	return out
}

// bucketQuantile estimates the q-quantile of a cumulative bucket list by
// linear interpolation inside the bucket the rank falls into, the way
// Prometheus' histogram_quantile does. Given a delta of two scrapes it is
// the quantile of what happened between them. No observations: not ok.
func bucketQuantile(bs []bucket, q float64) (float64, bool) {
	if len(bs) == 0 {
		return 0, false
	}
	total := bs[len(bs)-1].count
	if total <= 0 {
		return 0, false
	}
	rank := q * total
	prevLE, prevCount := 0.0, 0.0
	for _, b := range bs {
		if b.count >= rank {
			if math.IsInf(b.le, 1) {
				return prevLE, true
			}
			if b.count == prevCount {
				return b.le, true
			}
			return prevLE + (b.le-prevLE)*(rank-prevCount)/(b.count-prevCount), true
		}
		prevLE, prevCount = b.le, b.count
	}
	return prevLE, true
}

// jsonNum walks a decoded JSON document by dotted path and returns the
// number there; a missing path or a non-number is not ok.
func jsonNum(doc map[string]any, path string) (float64, bool) {
	var cur any = doc
	for _, part := range strings.Split(path, ".") {
		m, isMap := cur.(map[string]any)
		if !isMap {
			return 0, false
		}
		cur, isMap = m[part]
		if !isMap {
			return 0, false
		}
	}
	f, ok := cur.(float64)
	return f, ok
}

// jsonDelta is after-before at path, counting a path absent in either
// document as zero there (a WAL block appears only once the log is open).
func jsonDelta(before, after map[string]any, path string) float64 {
	a, _ := jsonNum(after, path)
	b, _ := jsonNum(before, path)
	return a - b
}

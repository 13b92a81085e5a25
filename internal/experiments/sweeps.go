package experiments

import (
	"fmt"

	"tinystm/internal/core"
	"tinystm/internal/harness"
	"tinystm/internal/vacation"
)

// SweepSurface holds throughput over the (#locks × #shifts) grid for one
// or more hierarchical-array sizes: the layout of Figures 6, 7 and 8.
type SweepSurface struct {
	Title     string
	LocksExps []int    // lock-array sizes as exponents (2^e)
	Shifts    []uint   // hash shift values
	Hiers     []uint64 // one surface per h
	// Values[h][l][s] is the throughput at Hiers[h], 2^LocksExps[l],
	// Shifts[s].
	Values [][][]float64
}

// ToTable flattens the surfaces into rows (h, locks, shift, throughput).
func (r SweepSurface) ToTable() harness.Table {
	tbl := harness.Table{Title: r.Title,
		Headers: []string{"h", "locks", "shifts", "throughput (10^3/s)"}}
	for hi, h := range r.Hiers {
		for li, le := range r.LocksExps {
			for si, sh := range r.Shifts {
				tbl.AddRow(h, fmt.Sprintf("2^%d", le), sh,
					fmt.Sprintf("%.1f", r.Values[hi][li][si]/1000))
			}
		}
	}
	return tbl
}

// Best returns the parameters and throughput of the best grid point.
func (r SweepSurface) Best() (core.Params, float64) {
	var best core.Params
	bestTp := -1.0
	for hi, h := range r.Hiers {
		for li, le := range r.LocksExps {
			for si, sh := range r.Shifts {
				if tp := r.Values[hi][li][si]; tp > bestTp {
					bestTp = tp
					best = core.Params{Locks: 1 << le, Shifts: sh, Hier: h}
				}
			}
		}
	}
	return best, bestTp
}

// SweepLocksShifts measures the (#locks × #shifts) grid for an intset
// workload. Figure 6 uses hiers={4}; Figure 8 uses hiers={4,16,64}.
func SweepLocksShifts(sc Scale, d core.Design, ip harness.IntsetParams,
	hiers []uint64, locksExps []int, shifts []uint) SweepSurface {
	threads := sc.Threads[len(sc.Threads)-1]
	sys := TinySTMWB
	if d == core.WriteThrough {
		sys = TinySTMWT
	}
	r := SweepSurface{
		Title: fmt.Sprintf("locks x shifts sweep: %v, size=%d, update=%d%%, threads=%d",
			ip.Kind, ip.InitialSize, ip.UpdatePct, threads),
		LocksExps: locksExps, Shifts: shifts, Hiers: hiers,
	}
	for _, h := range hiers {
		var surface [][]float64
		for _, le := range locksExps {
			row := make([]float64, len(shifts))
			for si, sh := range shifts {
				geo := core.Params{Locks: 1 << le, Shifts: sh, Hier: h}
				row[si] = RunIntsetPoint(sc, sys, geo, ip, threads).Throughput
			}
			surface = append(surface, row)
		}
		r.Values = append(r.Values, surface)
	}
	return r
}

// Figure6 reproduces "Influence of the number of locks and shifts": h=4,
// size=4096, update rate 20%, 8 threads, for the red-black tree and the
// linked list.
func Figure6(sc Scale, kind harness.Kind, locksExps []int, shifts []uint) SweepSurface {
	ip := harness.IntsetParams{Kind: kind, InitialSize: 4096, UpdatePct: 20}
	s := SweepLocksShifts(sc, core.WriteBack, ip, []uint64{4}, locksExps, shifts)
	s.Title = "Figure 6: " + s.Title
	return s
}

// Figure7 reproduces "Influence of the number of locks and shifts on the
// performance of STAMP's Vacation benchmark" (h=4, 8 threads).
func Figure7(sc Scale, vp vacation.Params, locksExps []int, shifts []uint) SweepSurface {
	threads := sc.Threads[len(sc.Threads)-1]
	r := SweepSurface{
		Title: fmt.Sprintf("Figure 7: STAMP Vacation, h=4, threads=%d, relations=%d",
			threads, vp.Relations),
		LocksExps: locksExps, Shifts: shifts, Hiers: []uint64{4},
	}
	var surface [][]float64
	for _, le := range locksExps {
		row := make([]float64, len(shifts))
		for si, sh := range shifts {
			geo := core.Params{Locks: 1 << le, Shifts: sh, Hier: 4}
			row[si] = RunVacationPoint(sc, core.WriteBack, geo, vp, threads).Throughput
		}
		surface = append(surface, row)
	}
	r.Values = append(r.Values, surface)
	return r
}

// Figure8 reproduces "Influence of the size of the hierarchical array":
// the Figure 6 grids re-run at h in {4, 16, 64}.
func Figure8(sc Scale, kind harness.Kind, locksExps []int, shifts []uint) SweepSurface {
	ip := harness.IntsetParams{Kind: kind, InitialSize: 4096, UpdatePct: 20}
	s := SweepLocksShifts(sc, core.WriteBack, ip, []uint64{4, 16, 64}, locksExps, shifts)
	s.Title = "Figure 8: " + s.Title
	return s
}

// ImprovementCurve is one panel of Figure 9: throughput improvement (in
// percent over the panel's worst configuration) along one parameter axis.
type ImprovementCurve struct {
	Title  string
	Labels []string // x-axis labels
	Series map[string][]float64
}

// ToTable renders the curve.
func (c ImprovementCurve) ToTable() harness.Table {
	tbl := harness.Table{Title: c.Title, Headers: []string{"x"}}
	names := make([]string, 0, len(c.Series))
	for name := range c.Series {
		names = append(names, name)
	}
	// Deterministic column order.
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			if names[j] < names[i] {
				names[i], names[j] = names[j], names[i]
			}
		}
	}
	tbl.Headers = append(tbl.Headers, names...)
	for i, l := range c.Labels {
		row := []any{l}
		for _, n := range names {
			row = append(row, fmt.Sprintf("%.1f%%", c.Series[n][i]))
		}
		tbl.AddRow(row...)
	}
	return tbl
}

// improvement converts raw throughputs to percent over the minimum, the
// normalization Figure 9 uses ("the percentage was calculated with
// respect to the lowest throughput per individual plot").
func improvement(tps []float64) []float64 {
	min := tps[0]
	for _, v := range tps[1:] {
		if v < min {
			min = v
		}
	}
	out := make([]float64, len(tps))
	if min <= 0 {
		return out
	}
	for i, v := range tps {
		out[i] = (v - min) / min * 100
	}
	return out
}

// Figure9Locks reproduces the left panel: improvement vs #locks for the
// red-black tree (h=4/64, shift=3) and linked list (h=4/64, shift=2).
func Figure9Locks(sc Scale, locksExps []int) ImprovementCurve {
	c := ImprovementCurve{
		Title:  "Figure 9 (left): improvement vs #locks, size=4096, update=20%",
		Series: map[string][]float64{},
	}
	for _, le := range locksExps {
		c.Labels = append(c.Labels, fmt.Sprintf("2^%d", le))
	}
	threads := sc.Threads[len(sc.Threads)-1]
	cases := []struct {
		name  string
		kind  harness.Kind
		h     uint64
		shift uint
	}{
		{"rbtree h=4 shift=3", harness.KindRBTree, 4, 3},
		{"list h=4 shift=2", harness.KindList, 4, 2},
		{"rbtree h=64 shift=3", harness.KindRBTree, 64, 3},
		{"list h=64 shift=2", harness.KindList, 64, 2},
	}
	for _, cs := range cases {
		ip := harness.IntsetParams{Kind: cs.kind, InitialSize: 4096, UpdatePct: 20}
		tps := make([]float64, len(locksExps))
		for i, le := range locksExps {
			geo := core.Params{Locks: 1 << le, Shifts: cs.shift, Hier: cs.h}
			tps[i] = RunIntsetPoint(sc, TinySTMWB, geo, ip, threads).Throughput
		}
		c.Series[cs.name] = improvement(tps)
	}
	return c
}

// Figure9Shifts reproduces the middle panel: improvement vs #shifts at
// #locks=2^22 (capped at the scale's largest feasible size).
func Figure9Shifts(sc Scale, locksExp int, shifts []uint) ImprovementCurve {
	c := ImprovementCurve{
		Title:  fmt.Sprintf("Figure 9 (middle): improvement vs #shifts, locks=2^%d", locksExp),
		Series: map[string][]float64{},
	}
	for _, sh := range shifts {
		c.Labels = append(c.Labels, fmt.Sprintf("%d", sh))
	}
	threads := sc.Threads[len(sc.Threads)-1]
	for _, cs := range []struct {
		name string
		kind harness.Kind
		h    uint64
	}{
		{"rbtree h=4", harness.KindRBTree, 4},
		{"list h=4", harness.KindList, 4},
		{"rbtree h=64", harness.KindRBTree, 64},
		{"list h=64", harness.KindList, 64},
	} {
		ip := harness.IntsetParams{Kind: cs.kind, InitialSize: 4096, UpdatePct: 20}
		tps := make([]float64, len(shifts))
		for i, sh := range shifts {
			geo := core.Params{Locks: 1 << locksExp, Shifts: sh, Hier: cs.h}
			tps[i] = RunIntsetPoint(sc, TinySTMWB, geo, ip, threads).Throughput
		}
		c.Series[cs.name] = improvement(tps)
	}
	return c
}

// Figure9Hier reproduces the right panel: improvement vs h at
// #locks=2^22, shifts in {2, 3}.
func Figure9Hier(sc Scale, locksExp int, hiers []uint64) ImprovementCurve {
	c := ImprovementCurve{
		Title:  fmt.Sprintf("Figure 9 (right): improvement vs h, locks=2^%d", locksExp),
		Series: map[string][]float64{},
	}
	for _, h := range hiers {
		c.Labels = append(c.Labels, fmt.Sprintf("%d", h))
	}
	threads := sc.Threads[len(sc.Threads)-1]
	for _, cs := range []struct {
		name  string
		kind  harness.Kind
		shift uint
	}{
		{"rbtree shift=3", harness.KindRBTree, 3},
		{"list shift=3", harness.KindList, 3},
		{"rbtree shift=2", harness.KindRBTree, 2},
		{"list shift=2", harness.KindList, 2},
	} {
		ip := harness.IntsetParams{Kind: cs.kind, InitialSize: 4096, UpdatePct: 20}
		tps := make([]float64, len(hiers))
		for i, h := range hiers {
			geo := core.Params{Locks: 1 << locksExp, Shifts: cs.shift, Hier: h}
			tps[i] = RunIntsetPoint(sc, TinySTMWB, geo, ip, threads).Throughput
		}
		c.Series[cs.name] = improvement(tps)
	}
	return c
}

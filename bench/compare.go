//go:build linux

package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// loadSet reads one set of results: a directory (every *.json in it) or a
// comma-separated list of result files.
func loadSet(arg string) ([]resultFile, error) {
	var paths []string
	if st, err := os.Stat(arg); err == nil && st.IsDir() {
		var err error
		if paths, err = filepath.Glob(filepath.Join(arg, "*.json")); err != nil {
			return nil, err
		}
		sort.Strings(paths)
	} else {
		paths = strings.Split(arg, ",")
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("%s: no result files", arg)
	}
	var set []resultFile
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var doc resultFile
		if err := json.Unmarshal(b, &doc); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		set = append(set, doc)
	}
	return set, nil
}

// values collects one end-to-end metric of one workload across a set.
func values(set []resultFile, workload, name string) []float64 {
	var out []float64
	for _, doc := range set {
		for _, r := range doc.Workloads {
			if m, ok := r.EndToEnd[name]; ok && r.Workload == workload {
				out = append(out, m.Value)
			}
		}
	}
	return out
}

// verdict judges B against A for one metric. A spread (quartile distance
// over median) wider than the bound on either side means the instrument
// cannot resolve a change of that size: unresolved, not unchanged.
func verdict(d metricDef, a, b []float64) (string, float64) {
	ma, _ := median(a)
	mb, _ := median(b)
	spread := func(v []float64, m float64) float64 {
		q1, q3 := quartiles(v)
		return (q3 - q1) / m
	}
	worse := (mb - ma) / ma
	if d.better == "higher" {
		worse = -worse
	}
	switch {
	case spread(a, ma) > d.bound || spread(b, mb) > d.bound:
		return "unresolved", worse
	case worse > d.bound:
		return "regressed", worse
	}
	return "ok", worse
}

// compareMain prints one row per workload x end-to-end metric for two sets
// of results and checks that the traced runs' counts agree exactly. It is
// the A/A tool for the benchmark itself and the parent-vs-change tool for
// every later change.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare A B   (each a directory of result files or file,file,...)")
		return 2
	}
	a, err := loadSet(args[0])
	if err == nil {
		var b []resultFile
		if b, err = loadSet(args[1]); err == nil {
			return compareSets(a, b)
		}
	}
	fmt.Fprintln(os.Stderr, "bench compare:", err)
	return 2
}

func compareSets(a, b []resultFile) int {
	bad := 0
	for name, set := range map[string][]resultFile{"A": a, "B": b} {
		for _, doc := range set {
			for _, r := range doc.Workloads {
				for _, why := range r.Invalid {
					fmt.Printf("set %s, %s seed %d: instrument invalid: %s\n", name, r.Workload, doc.Seed, why)
				}
			}
		}
	}
	fmt.Printf("%-12s %-20s %12s %25s %12s %25s %8s %6s  %s\n",
		"workload", "metric", "A median", "A quartiles", "B median", "B quartiles", "worse", "bound", "verdict")
	for i := range specs {
		w := specs[i].name
		for _, d := range endToEnd {
			va, vb := values(a, w, d.name), values(b, w, d.name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v, worse := verdict(d, va, vb)
			if v != "ok" {
				bad++
			}
			ma, _ := median(va)
			mb, _ := median(vb)
			a1, a3 := quartiles(va)
			b1, b3 := quartiles(vb)
			fmt.Printf("%-12s %-20s %12.5g %25s %12.5g %25s %+7.1f%% %5.0f%%  %s\n", w, d.name,
				ma, fmt.Sprintf("[%.5g, %.5g] n=%d", a1, a3, len(va)),
				mb, fmt.Sprintf("[%.5g, %.5g] n=%d", b1, b3, len(vb)),
				100*worse, 100*d.bound, v)
		}
	}

	// Traced-run counts involve no clock: for one seed and workload they
	// must be identical in every file of both sets.
	type key struct {
		seed           uint64
		workload, name string
	}
	seen := map[key]float64{}
	for _, doc := range append(append([]resultFile(nil), a...), b...) {
		for _, r := range doc.Workloads {
			for name, v := range r.Counts {
				k := key{doc.Seed, r.Workload, name}
				if prev, ok := seen[k]; ok && prev != v {
					fmt.Printf("count differs: seed %d %s %s: %v vs %v\n", k.seed, k.workload, k.name, prev, v)
					bad++
				}
				seen[k] = v
			}
		}
	}
	if len(seen) > 0 {
		fmt.Printf("traced-run counts: %d compared\n", len(seen))
	}
	if bad > 0 {
		fmt.Printf("%d rows are not ok\n", bad)
		return 1
	}
	return 0
}

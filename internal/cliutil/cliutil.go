// Package cliutil holds the small amount of flag plumbing shared by the
// benchmark executables in cmd/.
package cliutil

import (
	"fmt"
	"log"
	"strconv"
	"strings"
	"time"

	"tinystm/internal/core"
	"tinystm/internal/experiments"
	"tinystm/internal/harness"
)

// Must unwraps a flag-parsing result, ending the process with the error
// (through log.Fatal, so under the command's log prefix) when there is one.
func Must[T any](v T, err error) T {
	if err != nil {
		log.Fatal(err)
	}
	return v
}

// ParseInts parses a comma-separated integer list ("1,2,4,6,8").
func ParseInts(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		v, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("cliutil: bad integer %q: %w", p, err)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("cliutil: empty list %q", s)
	}
	return out, nil
}

// ParseUints parses a comma-separated list of unsigned integers.
func ParseUints(s string) ([]uint, error) {
	ints, err := ParseInts(s)
	if err != nil {
		return nil, err
	}
	out := make([]uint, len(ints))
	for i, v := range ints {
		if v < 0 {
			return nil, fmt.Errorf("cliutil: negative value %d", v)
		}
		out[i] = uint(v)
	}
	return out, nil
}

// ParseUint64s parses a comma-separated list of uint64s.
func ParseUint64s(s string) ([]uint64, error) {
	ints, err := ParseInts(s)
	if err != nil {
		return nil, err
	}
	out := make([]uint64, len(ints))
	for i, v := range ints {
		if v < 0 {
			return nil, fmt.Errorf("cliutil: negative value %d", v)
		}
		out[i] = uint64(v)
	}
	return out, nil
}

// ParseKind maps a benchmark name to a harness kind.
func ParseKind(s string) (harness.Kind, error) {
	switch strings.ToLower(s) {
	case "list", "linkedlist", "ll":
		return harness.KindList, nil
	case "rbtree", "tree", "rb":
		return harness.KindRBTree, nil
	case "skiplist", "skip":
		return harness.KindSkipList, nil
	case "hashset", "hash":
		return harness.KindHashSet, nil
	default:
		return 0, fmt.Errorf("cliutil: unknown benchmark %q (list, rbtree, skiplist, hashset)", s)
	}
}

// Scale assembles an experiments.Scale from common flag values.
func Scale(duration, warmup time.Duration, threads []int, seed uint64, quick bool, yield int) experiments.Scale {
	if quick {
		sc := experiments.QuickScale()
		sc.Threads = threads
		sc.YieldEvery = yield
		return sc
	}
	sc := experiments.PaperScale()
	sc.Duration = duration
	sc.Warmup = warmup
	sc.Threads = threads
	sc.Seed = seed
	sc.YieldEvery = yield
	return sc
}

// ParsePow2 parses an unsigned value that may be written either as a
// plain decimal ("65536") or as a power of two ("2^16").
func ParsePow2(s string) (uint64, error) {
	s = strings.TrimSpace(s)
	if rest, ok := strings.CutPrefix(s, "2^"); ok {
		exp, err := strconv.ParseUint(rest, 10, 6)
		if err != nil || exp > 63 {
			return 0, fmt.Errorf("cliutil: bad exponent in %q", s)
		}
		return 1 << exp, nil
	}
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("cliutil: bad value %q: %w", s, err)
	}
	return v, nil
}

// ParseParams parses the tunable triple "locks,shifts,h" used by the
// -geometry flags of cmd/stmkvd and cmd/stmbench. Locks and h accept
// either decimal or "2^k" notation, so "2^16,0,1" and "65536,0,1" are the
// same configuration.
func ParseParams(s string) (core.Params, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 3 {
		return core.Params{}, fmt.Errorf("cliutil: geometry %q must be locks,shifts,h", s)
	}
	locks, err := ParsePow2(parts[0])
	if err != nil {
		return core.Params{}, err
	}
	shifts, err := strconv.ParseUint(strings.TrimSpace(parts[1]), 10, 6)
	if err != nil {
		return core.Params{}, fmt.Errorf("cliutil: bad shifts %q: %w", parts[1], err)
	}
	hier, err := ParsePow2(parts[2])
	if err != nil {
		return core.Params{}, err
	}
	return core.Params{Locks: locks, Shifts: uint(shifts), Hier: hier}, nil
}

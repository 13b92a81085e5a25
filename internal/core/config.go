// Package core implements TinySTM: the word-based, time-based software
// transactional memory of Felber, Fetzer and Riegel (PPoPP 2008).
//
// The design follows the paper's Section 3: a shared array of versioned
// locks protects stripes of the word-addressed memory space; transactions
// acquire locks at encounter time; a global time base (shared counter)
// orders commits; snapshots are extended lazily as in the LSA algorithm;
// and an optional hierarchical array of counters lets update transactions
// skip validating most of their read set (Section 3.2). Conflicts follow
// the paper's one rule: an access that meets another transaction's lock
// aborts at once, and the retry first waits for that lock word to change
// (TinySTM's CM_DELAY; see Tx.awaitConflict). Both the
// write-through and write-back access strategies are implemented, selected
// by Config.Design. Runtime parameters (#locks, #shifts, h) can be changed
// on a live TM via Reconfigure, which reuses the clock roll-over
// stop-the-world mechanism (Section 4.2).
package core

import (
	"fmt"
	"math/bits"
	"strconv"
	"strings"

	"tinystm/internal/mem"
)

// Design selects how transactions write to memory (paper Section 3.1,
// "Write-through vs. Write-back").
type Design int

const (
	// WriteBack delays updates in a write log until commit. Lower abort
	// overhead; no incarnation numbers needed.
	WriteBack Design = iota
	// WriteThrough writes directly to memory and undoes on abort. Lower
	// commit overhead and O(1) read-after-write, but aborts must restore
	// memory and bump incarnation numbers.
	WriteThrough
)

// String returns the conventional short name used in the paper's figures.
func (d Design) String() string {
	switch d {
	case WriteBack:
		return "WB"
	case WriteThrough:
		return "WT"
	default:
		return fmt.Sprintf("Design(%d)", int(d))
	}
}

// MaxHier is the largest supported hierarchical array size (paper Figure 9
// explores h up to 256).
const MaxHier = 256

// maxSlots bounds the number of transaction descriptors a TM can mint;
// owner slots must fit the lock-word layout (23 bits available).
const maxSlots = 1 << 14

// Config parameterizes a TM instance. The three tunable parameters of
// Section 4 are Locks, Shifts and Hier.
type Config struct {
	// Space is the memory arena the TM protects. Required.
	Space *mem.Space
	// Locks is the number of entries in the lock array (the paper's
	// #locks, l). Must be a power of two. Default 2^16 (the paper's
	// "sensible" starting point).
	Locks uint64
	// Shifts is the number of extra right-shifts applied to an address
	// before indexing the lock array (the paper's #shifts). Controls how
	// many contiguous words map to the same lock. Addresses here are
	// word indices, so the paper's implicit word-alignment shift of 3 is
	// already accounted for. Default 0.
	Shifts uint
	// Hier is the size h of the hierarchical counter array. Must be a
	// power of two, 1 <= Hier <= MaxHier and Hier <= Locks. 1 disables
	// hierarchical locking. Default 1.
	Hier uint64
	// Design selects write-back (default) or write-through access.
	Design Design
	// MaxClock overrides the roll-over threshold of the global clock.
	// Zero selects the design's natural maximum (2^60-ish). Tests use
	// small values to exercise roll-over.
	MaxClock uint64
	// Snapshots enables the commit-ordered MVCC sidecar (package mvcc)
	// and with it the snapshot execution mode: TM.AtomicSnap runs
	// read-only transactions against a fixed start timestamp with no read
	// set, no commit-time validation and no conflict aborts — update
	// commits publish the values they supersede into the sidecar, and
	// snapshot reads fall back to it whenever a stripe has moved past
	// their snapshot. Off by default. A commit pays for publication (one
	// extra memory read per written word plus the sidecar insert) only
	// while a snapshot is registered; otherwise it runs as if this were
	// off.
	Snapshots bool
	// SnapshotBudget is the per-shard retained-version budget, fixed for
	// the TM's life. Zero selects the mvcc default (512). Ignored without
	// Snapshots.
	SnapshotBudget int
	// YieldEvery, when positive, yields the processor after every N
	// transactional loads. This simulates the fine-grained interleaving
	// of the paper's 8-core testbed on hosts with fewer cores: without
	// it, transactions on a single CPU run to completion within one
	// scheduler slice and conflict-driven behaviour (aborts, doomed
	// traversals, snapshot extensions) never surfaces. Zero — the
	// default — disables yielding. stmbench's -yield flag sets it.
	YieldEvery int
}

// withDefaults returns c with zero fields replaced by defaults.
func (c Config) withDefaults() Config {
	if c.Locks == 0 {
		c.Locks = 1 << 16
	}
	if c.Hier == 0 {
		c.Hier = 1
	}
	if c.MaxClock == 0 {
		if c.Design == WriteThrough {
			c.MaxClock = 1 << 59
		} else {
			c.MaxClock = 1 << 62
		}
	}
	return c
}

// validate reports whether the (defaulted) configuration is usable.
func (c Config) validate() error {
	if c.Space == nil {
		return fmt.Errorf("core: Config.Space is required")
	}
	if c.Locks == 0 || bits.OnesCount64(c.Locks) != 1 {
		return fmt.Errorf("core: Locks (%d) must be a power of two", c.Locks)
	}
	if c.Hier == 0 || bits.OnesCount64(c.Hier) != 1 {
		return fmt.Errorf("core: Hier (%d) must be a power of two", c.Hier)
	}
	if c.Hier > MaxHier {
		return fmt.Errorf("core: Hier (%d) exceeds MaxHier (%d)", c.Hier, MaxHier)
	}
	if c.Hier > c.Locks {
		return fmt.Errorf("core: Hier (%d) must not exceed Locks (%d)", c.Hier, c.Locks)
	}
	if c.Shifts > 32 {
		return fmt.Errorf("core: Shifts (%d) out of range [0,32]", c.Shifts)
	}
	if c.Design != WriteBack && c.Design != WriteThrough {
		return fmt.Errorf("core: unknown Design %d", int(c.Design))
	}
	if c.MaxClock < 2 {
		return fmt.Errorf("core: MaxClock (%d) too small", c.MaxClock)
	}
	if c.SnapshotBudget < 0 {
		return fmt.Errorf("core: SnapshotBudget (%d) must be non-negative", c.SnapshotBudget)
	}
	if maxVer := maxVersion(c.Design); c.MaxClock > maxVer {
		return fmt.Errorf("core: MaxClock (%d) exceeds representable version (%d) for design %v",
			c.MaxClock, maxVer, c.Design)
	}
	return nil
}

// Params is the tunable triple of Section 4, reported and adjusted as a
// unit by the dynamic tuner (the JSON form is what /stats and /tuning
// serve).
type Params struct {
	Locks  uint64 `json:"locks"`
	Shifts uint   `json:"shifts"`
	Hier   uint64 `json:"hier"`
}

// String renders the triple like the paper's configuration labels. A lock
// count that is not a power of two (an unvalidated triple) prints in
// decimal.
func (p Params) String() string {
	locks := strconv.FormatUint(p.Locks, 10)
	if bits.OnesCount64(p.Locks) == 1 {
		locks = "2^" + strconv.Itoa(bits.TrailingZeros64(p.Locks))
	}
	return fmt.Sprintf("(locks=%s, shifts=%d, h=%d)", locks, p.Shifts, p.Hier)
}

// ParseParams parses the triple "locks,shifts,h" of stmkvd's -geometry flag.
// Locks and h accept either decimal or "2^k" notation, so "2^16,0,1" and
// "65536,0,1" are the same configuration. It does not validate the triple;
// New and Reconfigure do.
func ParseParams(s string) (Params, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 3 {
		return Params{}, fmt.Errorf("core: geometry %q must be locks,shifts,h", s)
	}
	locks, err := parsePow2(parts[0])
	if err != nil {
		return Params{}, err
	}
	shifts, err := strconv.ParseUint(strings.TrimSpace(parts[1]), 10, 6)
	if err != nil {
		return Params{}, fmt.Errorf("core: bad shifts %q: %w", parts[1], err)
	}
	hier, err := parsePow2(parts[2])
	if err != nil {
		return Params{}, err
	}
	return Params{Locks: locks, Shifts: uint(shifts), Hier: hier}, nil
}

// parsePow2 parses an unsigned value written either as a plain decimal
// ("65536") or as a power of two ("2^16").
func parsePow2(s string) (uint64, error) {
	s = strings.TrimSpace(s)
	if rest, ok := strings.CutPrefix(s, "2^"); ok {
		exp, err := strconv.ParseUint(rest, 10, 6)
		if err != nil || exp > 63 {
			return 0, fmt.Errorf("core: bad exponent in %q", s)
		}
		return 1 << exp, nil
	}
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("core: bad value %q: %w", s, err)
	}
	return v, nil
}

package resilience

import (
	"sync/atomic"
	"time"
)

// Class buckets requests by how expendable they are under overload.
// Scans go first (each one holds a snapshot and streams thousands of
// pairs), then writes (they burn gate slots and WAL bandwidth), and
// reads last — a browned-out cache that still answers point reads is
// degraded, not down.
type Class int32

const (
	// ClassRead is point reads (GET, read-only batches).
	ClassRead Class = iota
	// ClassWrite is updates (PUT, DELETE, CAS, ADD, mixed batches).
	ClassWrite
	// ClassScan is range scans.
	ClassScan
	// NumClasses counts the classes (for per-class counters).
	NumClasses = 3
)

func (c Class) String() string {
	switch c {
	case ClassRead:
		return "read"
	case ClassWrite:
		return "write"
	case ClassScan:
		return "scan"
	}
	return "unknown"
}

// Level is a rung of the brownout ladder; each rung sheds one more
// class than the rung below.
type Level int32

const (
	// LevelOff sheds nothing.
	LevelOff Level = iota
	// LevelShedScans sheds scans.
	LevelShedScans
	// LevelShedWrites sheds scans and writes.
	LevelShedWrites
	// LevelShedAll sheds everything, reads included. The server is
	// protecting itself; clients see fast 503s instead of timeouts.
	LevelShedAll
	// NumLevels counts the rungs (for the one-hot state metric).
	NumLevels = 4
)

func (l Level) String() string {
	switch l {
	case LevelOff:
		return "off"
	case LevelShedScans:
		return "shed-scans"
	case LevelShedWrites:
		return "shed-writes"
	case LevelShedAll:
		return "shed-all"
	}
	return "unknown"
}

// Sheds reports whether a rung sheds a class: scans from
// LevelShedScans up, writes from LevelShedWrites up, reads only at
// LevelShedAll.
func (l Level) Sheds(c Class) bool {
	switch c {
	case ClassScan:
		return l >= LevelShedScans
	case ClassWrite:
		return l >= LevelShedWrites
	default:
		return l >= LevelShedAll
	}
}

// BrownoutConfig configures a Brownout. Zero values take the defaults
// noted on each field.
type BrownoutConfig struct {
	// SLO is the p99 latency objective; a period whose measured p99
	// exceeds it is "hot". Required (no default).
	SLO time.Duration
	// EscalateAfter is how many CONSECUTIVE hot periods climb one rung
	// (default 2 — one bad period is noise, two is a trend).
	EscalateAfter int
	// CalmAfter is how many consecutive calm periods step one rung back
	// down (default 4 — recovery is deliberately slower than escalation
	// so a marginal server does not oscillate).
	CalmAfter int
	// MinSamples is the fewest observations a period needs for its p99
	// to count as evidence of overload (default 16). Periods below it
	// count as calm: an idle server walks back down.
	MinSamples uint64
	// MaxLevel caps the ladder (default LevelShedAll).
	MaxLevel Level
}

func (c BrownoutConfig) withDefaults() BrownoutConfig {
	if c.EscalateAfter <= 0 {
		c.EscalateAfter = 2
	}
	if c.CalmAfter <= 0 {
		c.CalmAfter = 4
	}
	if c.MinSamples == 0 {
		c.MinSamples = 16
	}
	if c.MaxLevel <= 0 || c.MaxLevel > LevelShedAll {
		c.MaxLevel = LevelShedAll
	}
	return c
}

// Brownout is the overload ladder's rule engine: a pure hysteresis
// state machine stepped once per tuning period with the period's
// measured p99 (the PR-9 request histogram delta). It decides only the
// LEVEL; enforcement — answering 503 for shed classes — lives with the
// admission checks on each request surface, reading Level through one
// atomic load.
type Brownout struct {
	cfg   BrownoutConfig
	level atomic.Int32

	// Stepping state; Step is called by one controller goroutine, so
	// plain fields guarded by that single-caller discipline.
	hot  int
	calm int

	escalations   atomic.Uint64
	deescalations atomic.Uint64
}

// NewBrownout returns a ladder at LevelOff.
func NewBrownout(cfg BrownoutConfig) *Brownout {
	return &Brownout{cfg: cfg.withDefaults()}
}

// Decide feeds one period's measured p99 and sample count to the
// hysteresis and returns the level the ladder should stand on next, plus
// whether that is a change. It does not move the ladder; Set does.
// Single-stepper only: call from one goroutine.
func (b *Brownout) Decide(p99 time.Duration, samples uint64) (Level, bool) {
	lvl := b.Level()
	if samples >= b.cfg.MinSamples && p99 > b.cfg.SLO {
		b.hot++
		b.calm = 0
		if b.hot >= b.cfg.EscalateAfter && lvl < b.cfg.MaxLevel {
			b.hot = 0
			return lvl + 1, true
		}
		return lvl, false
	}
	b.calm++
	b.hot = 0
	if b.calm >= b.cfg.CalmAfter && lvl > LevelOff {
		b.calm = 0
		return lvl - 1, true
	}
	return lvl, false
}

// Set moves the ladder to lvl (the request paths see it on their next
// atomic load) and counts the move as an escalation or de-escalation.
func (b *Brownout) Set(lvl Level) {
	switch old := Level(b.level.Swap(int32(lvl))); {
	case lvl > old:
		b.escalations.Add(1)
	case lvl < old:
		b.deescalations.Add(1)
	}
}

// Step is Decide followed by Set: one period of the ladder in one call.
func (b *Brownout) Step(p99 time.Duration, samples uint64) (Level, bool) {
	lvl, changed := b.Decide(p99, samples)
	if changed {
		b.Set(lvl)
	}
	return lvl, changed
}

// Level returns the current rung (lock-free; safe from any goroutine).
func (b *Brownout) Level() Level { return Level(b.level.Load()) }

// Sheds reports whether the current rung sheds class c.
func (b *Brownout) Sheds(c Class) bool { return b.Level().Sheds(c) }

// SLO returns the configured p99 objective.
func (b *Brownout) SLO() time.Duration { return b.cfg.SLO }

// Moves returns the cumulative escalation and de-escalation counts.
func (b *Brownout) Moves() (escalations, deescalations uint64) {
	return b.escalations.Load(), b.deescalations.Load()
}

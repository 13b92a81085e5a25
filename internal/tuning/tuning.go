// Package tuning implements the paper's dynamic tuning strategy (Section
// 4.2): "a hill climbing algorithm with a memory and forbidden areas" over
// the triple (#locks, #shifts, h).
//
// The tuner is a pure decision engine: callers feed it one throughput
// measurement per period (the maximum of three samples, as in Section 4.3)
// and apply the configuration it returns, typically via core.TM's
// Reconfigure. Keeping the engine free of clocks and goroutines makes the
// strategy deterministic under a seeded generator and directly testable.
//
// The eight moves of the paper:
//
//	1/2: double / halve the number of locks
//	3/4: increase / decrease the number of shifts
//	5/6: double / halve the size of the hierarchical array
//	7:   nop
//	8:   reverse to the configuration with the maximum throughput
//
// Rules, quoting Section 4.2: a move is verified during the next period;
// if performance decreased by more than 2% — or the configuration is more
// than 10% below the best seen — the tuner reverses to the best
// configuration. A drop of more than 10% after changing shifts or the
// hierarchical array from x to y forbids moving beyond x in that
// direction. Moves are chosen randomly among moves 1–6 leading to
// so-far-uncharted configurations; with none available the tuner reverses
// to the best configuration, and at the best configuration it performs a
// nop. If throughput drops below the second best configuration's, the
// tuner switches to that configuration.
package tuning

import (
	"fmt"

	"tinystm/internal/core"
	"tinystm/internal/rng"
)

// Move identifies one of the paper's eight tuning moves (plus the
// second-best switch, which the paper describes but does not number).
type Move int

// Move values match the paper's numbering.
const (
	MoveNone        Move = 0
	MoveDoubleLocks Move = 1
	MoveHalveLocks  Move = 2
	MoveIncShifts   Move = 3
	MoveDecShifts   Move = 4
	MoveDoubleHier  Move = 5
	MoveHalveHier   Move = 6
	MoveNop         Move = 7
	MoveReverse     Move = 8
	// MoveSecondBest switches to the second-best configuration when the
	// current best's throughput degrades below it.
	MoveSecondBest Move = 9
)

// String renders the paper's move numbers.
func (m Move) String() string {
	switch m {
	case MoveNone:
		return "start"
	case MoveNop:
		return "7 (nop)"
	case MoveReverse:
		return "8 (reverse)"
	case MoveSecondBest:
		return "switch-2nd"
	default:
		return fmt.Sprintf("%d", int(m))
	}
}

// Signed renders the move with the paper's "-x" notation when it followed
// a reverse to the best configuration (reverse, then move x).
func (m Move) Signed(reversed bool) string {
	if reversed {
		return "-" + m.String()
	}
	return m.String()
}

// Bounds limits the explorable configuration space.
type Bounds struct {
	MinLocks, MaxLocks uint64 // powers of two
	MinShifts          uint
	MaxShifts          uint
	MinHier, MaxHier   uint64 // powers of two; MinHier >= 1
}

// DefaultBounds covers the region the paper's sweeps explore.
func DefaultBounds() Bounds {
	return Bounds{
		MinLocks: 1 << 4, MaxLocks: 1 << 24,
		MinShifts: 0, MaxShifts: 8,
		MinHier: 1, MaxHier: 256,
	}
}

// Config parameterizes a Tuner.
type Config struct {
	// Initial is the starting configuration (the paper starts production
	// use at locks=2^16, shifts=0, h=1; the evaluation starts at 2^8).
	Initial core.Params
	Bounds  Bounds
	Seed    uint64
}

// Section 4.2's thresholds, as fractions of a throughput.
const (
	// dropReverse is the decrease versus the previous configuration that
	// triggers a reverse to the best.
	dropReverse = 0.02
	// dropBest is the gap below the best configuration that triggers a
	// reverse to it.
	dropBest = 0.10
	// dropForbid is the decrease after a shifts or hierarchy move that
	// forbids moving further in that direction.
	dropForbid = 0.10
)

func (c Config) withDefaults() Config {
	if c.Bounds == (Bounds{}) {
		c.Bounds = DefaultBounds()
	}
	return c
}

// Tuner is the hill-climbing engine. Not safe for concurrent use.
type Tuner struct {
	cfg Config
	rng *rng.Rand

	cur     core.Params
	prevTp  float64 // throughput measured at the configuration we moved from
	hasPrev bool
	last    Move // move that led to cur

	// memory: most recent throughput per visited configuration.
	memory map[core.Params]float64

	// forbidden areas (dynamic clamps tightened on big drops).
	minShifts, maxShifts uint
	minHier, maxHier     uint64
}

// New builds a tuner starting at cfg.Initial.
func New(cfg Config) *Tuner {
	cfg = cfg.withDefaults()
	t := &Tuner{
		cfg:       cfg,
		rng:       rng.New(cfg.Seed),
		cur:       cfg.Initial,
		memory:    make(map[core.Params]float64),
		minShifts: cfg.Bounds.MinShifts,
		maxShifts: cfg.Bounds.MaxShifts,
		minHier:   cfg.Bounds.MinHier,
		maxHier:   cfg.Bounds.MaxHier,
	}
	return t
}

// Current returns the configuration the tuner wants measured next.
func (t *Tuner) Current() core.Params { return t.cur }

// Best returns the best configuration seen and its recorded throughput.
func (t *Tuner) Best() (core.Params, float64) {
	best, _, tp, _ := t.ranked()
	return best, tp
}

// ranked scans the memory for the best and second-best configurations.
func (t *Tuner) ranked() (best, second core.Params, bestTp, secondTp float64) {
	first := true
	hasSecond := false
	for p, tp := range t.memory {
		switch {
		case first || tp > bestTp:
			if !first {
				second, secondTp, hasSecond = best, bestTp, true
			}
			best, bestTp = p, tp
			first = false
		case !hasSecond || tp > secondTp:
			second, secondTp, hasSecond = p, tp, true
		}
	}
	if !hasSecond {
		second, secondTp = best, bestTp
	}
	return best, second, bestTp, secondTp
}

// apply returns p after applying move m (caller checked legality).
func apply(p core.Params, m Move) core.Params {
	switch m {
	case MoveDoubleLocks:
		p.Locks *= 2
	case MoveHalveLocks:
		p.Locks /= 2
	case MoveIncShifts:
		p.Shifts++
	case MoveDecShifts:
		p.Shifts--
	case MoveDoubleHier:
		p.Hier *= 2
	case MoveHalveHier:
		p.Hier /= 2
	}
	return p
}

// legal reports whether move m from p stays inside bounds and outside
// forbidden areas.
func (t *Tuner) legal(p core.Params, m Move) bool {
	b := t.cfg.Bounds
	switch m {
	case MoveDoubleLocks:
		return p.Locks*2 <= b.MaxLocks
	case MoveHalveLocks:
		return p.Locks/2 >= b.MinLocks && p.Locks/2 >= t.minHier && p.Locks/2 >= p.Hier
	case MoveIncShifts:
		return p.Shifts+1 <= t.maxShifts
	case MoveDecShifts:
		return p.Shifts > t.minShifts
	case MoveDoubleHier:
		return p.Hier*2 <= t.maxHier && p.Hier*2 <= p.Locks
	case MoveHalveHier:
		return p.Hier > 1 && p.Hier/2 >= t.minHier
	default:
		return false
	}
}

// unchartedMoves lists moves 1-6 from p that lead to configurations not
// yet in memory.
func (t *Tuner) unchartedMoves(p core.Params) []Move {
	var out []Move
	for m := MoveDoubleLocks; m <= MoveHalveHier; m++ {
		if !t.legal(p, m) {
			continue
		}
		if _, seen := t.memory[apply(p, m)]; seen {
			continue
		}
		out = append(out, m)
	}
	return out
}

// forbidIfBigDrop tightens the dynamic clamps after a >dropForbid drop on
// a shifts or hierarchy move from x to y: never again beyond x.
func (t *Tuner) forbidIfBigDrop(tp float64) {
	if !t.hasPrev || t.prevTp <= 0 {
		return
	}
	if tp >= t.prevTp*(1-dropForbid) {
		return
	}
	switch t.last {
	case MoveIncShifts:
		if x := t.cur.Shifts - 1; x < t.maxShifts {
			t.maxShifts = x
		}
	case MoveDecShifts:
		if x := t.cur.Shifts + 1; x > t.minShifts {
			t.minShifts = x
		}
	case MoveDoubleHier:
		if x := t.cur.Hier / 2; x < t.maxHier {
			t.maxHier = x
		}
	case MoveHalveHier:
		if x := t.cur.Hier * 2; x > t.minHier {
			t.minHier = x
		}
	}
}

// Step records the throughput measured at the current configuration and
// returns the next configuration, the move that produced it, and whether
// that move followed a reverse to the best configuration (the paper's
// "-x" notation). The tuner keeps no per-step log — its state is bounded
// by the configurations it has visited — so a caller that wants the path
// collects these returns, as Runtime's trace does.
func (t *Tuner) Step(throughput float64) (core.Params, Move, bool) {
	measured := t.cur
	var prevBest core.Params
	hadMemory := len(t.memory) > 0
	if hadMemory {
		prevBest, _, _, _ = t.ranked()
	}
	t.memory[measured] = throughput
	t.forbidIfBigDrop(throughput)
	best, _, bestTp, _ := t.ranked()

	reversed := false
	from := t.cur
	var move Move

	if hadMemory && measured == prevBest && measured != best {
		// The best configuration degraded below the old second best:
		// switch to the new best automatically (Section 4.2's "if the
		// throughput drops below that of the second best configuration,
		// we automatically switch to that configuration").
		t.cur = best
		t.prevTp = bestTp
		t.hasPrev = true
		t.last = MoveSecondBest
		return t.cur, t.last, false
	}

	badVsPrev := t.hasPrev && t.prevTp > 0 && throughput < t.prevTp*(1-dropReverse)
	farFromBest := bestTp > 0 && throughput < bestTp*(1-dropBest)

	if (badVsPrev || farFromBest) && measured != best {
		// Reverse to the best configuration, then immediately take a new
		// exploratory move from there (the paper's "-x" bundling).
		reversed = true
		from = best
	}

	if moves := t.unchartedMoves(from); len(moves) > 0 {
		move = moves[t.rng.Intn(len(moves))]
		t.cur = apply(from, move)
		t.prevTp = t.memory[from]
		t.hasPrev = true
	} else if reversed || from != best {
		// Nothing uncharted remains (or everything is forbidden):
		// reverse to the best configuration and hold (a bare move 8).
		reversed = reversed || from != best
		move = MoveReverse
		t.cur = best
		t.prevTp = bestTp
		t.hasPrev = true
	} else {
		move = MoveNop
		t.cur = from
		t.prevTp = throughput
		t.hasPrev = true
	}
	t.last = move
	return t.cur, move, reversed
}

// revert puts the tuner back on the configuration a failed Reconfigure
// left live. The memory keeps what was measured; only the position and
// the move that led to it are withdrawn, so the next period is credited
// to the configuration that actually ran and no forbidden area is drawn
// from a move that never happened.
func (t *Tuner) revert(live core.Params) {
	t.cur = live
	t.last = MoveNone
}

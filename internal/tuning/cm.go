package tuning

import (
	"tinystm/internal/cm"
)

// CMSystem is an STM whose contention-management policy can be switched
// live. *core.TM satisfies it.
type CMSystem interface {
	// CM returns the active policy kind.
	CM() cm.Kind
	// SetCM switches the policy on the live system (no world freeze; a
	// zero Knobs keeps the system's construction-time knobs).
	SetCM(k cm.Kind, kn cm.Knobs) error
}

// CMConfig parameterizes the adaptive contention-management controller
// (NewCM): a rule-based ladder climber layered beside the geometry
// hill-climber, driven by the same per-period Sample.
//
// The controller escalates to a heavier policy when the abort ratio says
// the current one is livelocking, retreats to the best-measured policy
// when throughput decays below it, and probes one rung down when
// contention subsides — the adaptive-transaction-scheduling idea applied
// to the whole policy ladder.
type CMConfig struct {
	// Ladder is the escalation order, lightest first. Default
	// cm.AllKinds (suicide, backoff, karma, timestamp, serializer).
	Ladder []cm.Kind
	// Knobs travels with every switch (zero: the system's own knobs).
	Knobs cm.Knobs
	// EscalateAbortRatio is the abort ratio aborts/(commits+aborts) at
	// or above which the controller climbs one rung. Default 0.6.
	EscalateAbortRatio float64
	// DeescalateAbortRatio is the ratio at or below which it probes one
	// rung down (cheaper policies win when contention is gone).
	// Default 0.05.
	DeescalateAbortRatio float64
	// DropBest is the fractional throughput gap below the best-measured
	// rung that triggers a switch back to it. Default 0.10 — the same
	// tolerance the geometry tuner applies (Section 4.2).
	DropBest float64
	// HoldPeriods is how many periods a freshly installed policy runs
	// unchallenged before the controller re-decides: a switch perturbs
	// the measurement it would be judged by. Default 3.
	HoldPeriods int
}

func (c CMConfig) withDefaults() CMConfig {
	// Drop invalid kinds from a custom ladder: cmTuner would otherwise
	// climb onto a rung SetCM rejects and park there forever.
	if len(c.Ladder) > 0 {
		valid := c.Ladder[:0:0]
		for _, k := range c.Ladder {
			if k.Valid() {
				valid = append(valid, k)
			}
		}
		c.Ladder = valid
	}
	if len(c.Ladder) == 0 {
		c.Ladder = cm.AllKinds
	}
	if c.EscalateAbortRatio == 0 {
		c.EscalateAbortRatio = 0.6
	}
	if c.DeescalateAbortRatio == 0 {
		c.DeescalateAbortRatio = 0.05
	}
	if c.DropBest == 0 {
		c.DropBest = 0.10
	}
	if c.HoldPeriods == 0 {
		c.HoldPeriods = 3
	}
	return c
}

// cmTuner is the controller state. Like the geometry Tuner it is a pure
// decision engine — deterministic given the measurement sequence — so the
// fake-clock runtime tests cover it end to end.
type cmTuner struct {
	sys    CMSystem
	cfg    CMConfig
	ladder []cm.Kind
	cur    int
	seen   []bool
	tp     []float64 // latest throughput measured per rung
	hold   int
	prev   int // rung before the last switch (for revert on failed SetCM)
}

func (t *cmTuner) Name() string { return CMName }

func (t *cmTuner) Knob() Knob {
	k := t.current()
	return Knob{N: int(k), Name: k.String()}
}

func (t *cmTuner) Observe(s Sample) Decision {
	return decide(t, s, func() bool {
		_, switched := t.step(s.Throughput, s.Commits, s.Aborts, s.GeometrySettled)
		return switched
	})
}

// Apply switches the live policy (no world freeze).
func (t *cmTuner) Apply(d Decision) error { return t.sys.SetCM(cm.Kind(d.To.N), t.cfg.Knobs) }
func (t *cmTuner) Revert(Decision)        { t.revert() }

// NewCM returns the contention-management controller over sys, starting
// from the policy sys runs now.
func NewCM(sys CMSystem, cfg CMConfig) Controller {
	cfg = cfg.withDefaults()
	start, ladder := sys.CM(), cfg.Ladder
	cur := -1
	for i, k := range ladder {
		if k == start {
			cur = i
			break
		}
	}
	if cur < 0 {
		// The system's current policy is not on the ladder: treat it as
		// the lightest rung so the first escalation moves onto the
		// ladder proper.
		ladder = append([]cm.Kind{start}, ladder...)
		cur = 0
	}
	return &cmTuner{
		sys:    sys,
		cfg:    cfg,
		ladder: ladder,
		cur:    cur,
		seen:   make([]bool, len(ladder)),
		tp:     make([]float64, len(ladder)),
	}
}

// current returns the rung the controller believes is installed.
func (t *cmTuner) current() cm.Kind { return t.ladder[t.cur] }

// best returns the index of the best-measured rung (the current one when
// nothing else was measured yet).
func (t *cmTuner) best() int {
	best := t.cur
	for i := range t.ladder {
		if t.seen[i] && (!t.seen[best] || t.tp[i] > t.tp[best]) {
			best = i
		}
	}
	return best
}

// step records one period's measurement at the current rung and returns
// the rung to install for the next period (switched reports a change).
//
// geomSettled reports that the geometry hill-climber decided to hold its
// configuration this period: throughput measured then is attributable to
// the policy rung, so only those periods feed the per-rung memory and the
// throughput-comparison rules — otherwise a rung would be credited (or
// blamed) for whatever geometry happened to be live, and the retreat rule
// would bounce between rungs chasing geometry noise. The abort-ratio
// escalation stays always-on: a livelock signal is exactly the situation
// no geometry move fixes, and waiting for the geometry walk to settle
// inside a retry storm could take forever.
func (t *cmTuner) step(tp float64, commits, aborts uint64, geomSettled bool) (next cm.Kind, switched bool) {
	if geomSettled {
		t.seen[t.cur] = true
		t.tp[t.cur] = tp
	}
	if t.hold > 0 {
		t.hold--
		return t.ladder[t.cur], false
	}
	ratio := 0.0
	if commits+aborts > 0 {
		ratio = float64(aborts) / float64(commits+aborts)
	}
	ok := func(i int) bool { // candidate rung not known to be worse
		return !t.seen[i] || t.tp[i] >= tp*(1-t.cfg.DropBest)
	}
	target := t.cur
	switch best := t.best(); {
	case ratio >= t.cfg.EscalateAbortRatio && t.cur+1 < len(t.ladder) && ok(t.cur+1):
		// Livelock signal: climb to a heavier policy — unless the rung
		// above already measured clearly worse than where we stand.
		target = t.cur + 1
	case !geomSettled:
		// The throughput rules below compare across rungs; without a
		// settled geometry the comparison is not apples-to-apples.
	case best != t.cur && t.tp[best] > 0 && tp < t.tp[best]*(1-t.cfg.DropBest):
		// The current rung fell well below the best-measured one:
		// retreat to the winner.
		target = best
	case ratio <= t.cfg.DeescalateAbortRatio && t.cur > 0 && ok(t.cur-1):
		// Contention subsided: probe the cheaper rung below.
		target = t.cur - 1
	}
	if target == t.cur {
		return t.ladder[t.cur], false
	}
	t.prev = t.cur
	t.cur = target
	t.hold = t.cfg.HoldPeriods
	return t.ladder[t.cur], true
}

// revert rolls the last switch back after a failed SetCM, so the
// controller's notion of the installed rung never drifts from reality
// (otherwise every later measurement would be credited to a rung that was
// never live, and the switch would never be retried).
func (t *cmTuner) revert() {
	t.cur = t.prev
	t.hold = 0
}

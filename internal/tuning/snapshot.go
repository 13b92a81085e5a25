package tuning

// SnapshotSystem is an STM with an MVCC snapshot sidecar whose per-shard
// version budget can be walked live. *core.TM (built with
// Config.Snapshots) satisfies it. The too-old and sidecar-read signals
// the controller steers on reach it through the Sample (see
// snapshotCounter in runtime.go).
type SnapshotSystem interface {
	// VersionBudget returns the current per-shard version budget.
	VersionBudget() int
	// SetVersionBudget replaces it on the live system (no world freeze).
	SetVersionBudget(int) error
}

// SnapshotConfig parameterizes the version-budget controller (NewBudget):
// the paper's dynamic-tuning loop applied to the snapshot subsystem's one
// knob. Each period it reads the Sample's snapshot deltas and walks the
// per-shard version budget:
//
//   - snapshot-too-old aborts during the period mean live snapshots fell
//     off the retained horizon — the buffer is too small for the current
//     scan length / write rate mix: double the budget (up to Max);
//   - no too-old aborts AND no sidecar reads for ShrinkAfter consecutive
//     periods mean the workload turned write-heavy with no snapshot
//     traffic to serve — halve the budget (down to Min), handing the
//     memory back. Periods with sidecar reads hold: a budget that is
//     serving scans without too-old aborts is exactly right, and
//     shrinking it would oscillate.
type SnapshotConfig struct {
	// Min and Max bound the walk. Defaults 64 and 65536.
	Min, Max int
	// ShrinkAfter is how many consecutive calm periods (no too-old
	// aborts, no sidecar reads) trigger a halving. Default 4.
	ShrinkAfter int
	// HoldPeriods is how many periods a freshly moved budget runs
	// unchallenged. Default 2.
	HoldPeriods int
}

func (c SnapshotConfig) withDefaults() SnapshotConfig {
	if c.Min <= 0 {
		c.Min = 64
	}
	if c.Max <= 0 {
		c.Max = 65536
	}
	if c.Max < c.Min {
		c.Max = c.Min
	}
	if c.ShrinkAfter <= 0 {
		c.ShrinkAfter = 4
	}
	if c.HoldPeriods <= 0 {
		c.HoldPeriods = 2
	}
	return c
}

// snapTuner is the controller state: a deterministic rule engine like
// cmTuner, so the fake-clock runtime tests cover it end to end.
type snapTuner struct {
	sys    SnapshotSystem
	cfg    SnapshotConfig
	budget int
	calm   int // consecutive periods with no too-old aborts and no reads
	hold   int
}

func (t *snapTuner) Name() string { return BudgetName }
func (t *snapTuner) Knob() Knob   { return Knob{N: t.budget} }

// Observe is independent of geometry churn: a too-old abort means live
// snapshots lost versions no geometry move restores.
func (t *snapTuner) Observe(s Sample) Decision {
	return decide(t, s, func() bool {
		_, changed := t.step(s.SnapTooOld, s.SnapReads)
		return changed
	})
}

// Apply resizes the live sidecar (no world freeze).
func (t *snapTuner) Apply(d Decision) error { return t.sys.SetVersionBudget(d.To.N) }

// Revert resynchronizes with whatever budget the system actually runs.
func (t *snapTuner) Revert(Decision) { t.budget = t.sys.VersionBudget() }

// NewBudget returns the version-budget controller over sys, starting from
// the budget sys runs now (clamped into [Min, Max]).
func NewBudget(sys SnapshotSystem, cfg SnapshotConfig) Controller {
	cfg = cfg.withDefaults()
	budget := sys.VersionBudget()
	if budget < cfg.Min {
		budget = cfg.Min
	}
	if budget > cfg.Max {
		budget = cfg.Max
	}
	return &snapTuner{sys: sys, cfg: cfg, budget: budget}
}

// step consumes one period's deltas and returns the budget for the next
// period (changed reports a move).
func (t *snapTuner) step(tooOld, sidecarReads uint64) (next int, changed bool) {
	if tooOld == 0 && sidecarReads == 0 {
		t.calm++
	} else {
		t.calm = 0
	}
	if t.hold > 0 {
		t.hold--
		return t.budget, false
	}
	switch {
	case tooOld > 0 && t.budget < t.cfg.Max:
		// Live snapshots are falling off the horizon: grow.
		t.budget *= 2
		if t.budget > t.cfg.Max {
			t.budget = t.cfg.Max
		}
	case tooOld == 0 && t.calm >= t.cfg.ShrinkAfter && t.budget > t.cfg.Min:
		// No snapshot traffic at all for a while: hand memory back.
		t.budget /= 2
		if t.budget < t.cfg.Min {
			t.budget = t.cfg.Min
		}
		t.calm = 0
	default:
		return t.budget, false
	}
	t.hold = t.cfg.HoldPeriods
	return t.budget, true
}

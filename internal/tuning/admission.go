package tuning

// AdmissionGate is an update-admission token bucket whose width can be
// walked live. admission.Gate satisfies it. Unlike the geometry knob the
// gate is not part of the STM — it sits in front of it, at the server
// door.
type AdmissionGate interface {
	// Width returns the current number of concurrent-updater tokens.
	Width() int
	// SetWidth replaces it on the live gate (floor 1; no world freeze).
	SetWidth(int) error
}

// AdmissionConfig parameterizes the proactive admission controller
// (NewAdmission): the paper's dynamic-tuning loop applied to the one knob
// the conflict rule cannot reach — how many update transactions run AT
// ALL.
//
// The cost-of-concurrency observation (Ravi): past a workload-dependent
// point, admitting more concurrent updaters reduces committed
// throughput, because each admitted transaction mostly manufactures
// aborts for the others. The STM's conflict rule reacts to those
// conflicts after the fact; this controller prevents them, bounding updaters at the
// door. Each period it reads the same (commits, aborts) measurement as
// the geometry tuner and walks the gate width:
//
//   - abort ratio at or above ShrinkAbortRatio: the updaters are eating
//     each other — halve the width (multiplicative decrease, floor Min);
//   - abort ratio at or below GrowAbortRatio for GrowAfter consecutive
//     periods: contention is gone — probe wider (additive increase,
//     width += max(1, width/4), up to Max) so a calmed workload gets its
//     concurrency back;
//   - in between: hold. A freshly moved width additionally runs
//     HoldPeriods unchallenged, because a move perturbs the measurement
//     it would be judged by.
//
// The floor is 1, never 0: admission control may serialize updates but
// must never starve them.
type AdmissionConfig struct {
	// Min and Max bound the walk. Defaults 1 and 1024.
	Min, Max int
	// ShrinkAbortRatio is the abort ratio aborts/(commits+aborts) at or
	// above which the width halves. Default 0.5.
	ShrinkAbortRatio float64
	// GrowAbortRatio is the ratio at or below which the controller
	// counts a calm period. Default 0.1.
	GrowAbortRatio float64
	// GrowAfter is how many consecutive calm periods trigger a widening
	// probe. Default 2.
	GrowAfter int
	// HoldPeriods is how many periods a freshly moved width runs
	// unchallenged. Default 2.
	HoldPeriods int
}

func (c AdmissionConfig) withDefaults() AdmissionConfig {
	if c.Min < 1 {
		c.Min = 1
	}
	if c.Max <= 0 {
		c.Max = 1024
	}
	if c.Max < c.Min {
		c.Max = c.Min
	}
	if c.ShrinkAbortRatio == 0 {
		c.ShrinkAbortRatio = 0.5
	}
	if c.GrowAbortRatio == 0 {
		c.GrowAbortRatio = 0.1
	}
	if c.GrowAfter <= 0 {
		c.GrowAfter = 2
	}
	if c.HoldPeriods <= 0 {
		c.HoldPeriods = 2
	}
	return c
}

// admTuner is the controller state: a deterministic rule engine, so the
// fake-clock runtime tests cover it end to end.
type admTuner struct {
	gate  AdmissionGate
	cfg   AdmissionConfig
	width int
	calm  int // consecutive periods at or below GrowAbortRatio
	hold  int
}

func (t *admTuner) Name() string { return AdmissionName }
func (t *admTuner) Knob() Knob   { return Knob{N: t.width} }

func (t *admTuner) Observe(s Sample) Decision {
	return decide(t, s, func() bool {
		_, changed := t.step(s.Commits, s.Aborts)
		return changed
	})
}

// Apply resizes the live gate (no world freeze).
func (t *admTuner) Apply(d Decision) error { return t.gate.SetWidth(d.To.N) }

// Revert resynchronizes with the width the live gate actually has.
func (t *admTuner) Revert(Decision) { t.width = t.gate.Width() }

// NewAdmission returns the admission-width controller over gate, starting
// from the width the gate has now (clamped into [Min, Max]).
func NewAdmission(gate AdmissionGate, cfg AdmissionConfig) Controller {
	cfg = cfg.withDefaults()
	width := gate.Width()
	if width < cfg.Min {
		width = cfg.Min
	}
	if width > cfg.Max {
		width = cfg.Max
	}
	return &admTuner{gate: gate, cfg: cfg, width: width}
}

// step consumes one period's (commits, aborts) deltas and returns the
// width for the next period (changed reports a move).
func (t *admTuner) step(commits, aborts uint64) (next int, changed bool) {
	ratio := 0.0
	if commits+aborts > 0 {
		ratio = float64(aborts) / float64(commits+aborts)
	}
	if ratio <= t.cfg.GrowAbortRatio {
		t.calm++
	} else {
		t.calm = 0
	}
	if t.hold > 0 {
		t.hold--
		return t.width, false
	}
	switch {
	case ratio >= t.cfg.ShrinkAbortRatio && t.width > t.cfg.Min:
		// Abort churn: the admitted updaters are mostly killing each
		// other. Multiplicative decrease.
		t.width /= 2
		if t.width < t.cfg.Min {
			t.width = t.cfg.Min
		}
	case t.calm >= t.cfg.GrowAfter && t.width < t.cfg.Max:
		// Sustained calm: probe wider so a workload whose storm passed
		// gets its concurrency back. Additive-ish increase — gentle on
		// purpose, the shrink is the sharp edge.
		t.width += max(1, t.width/4)
		if t.width > t.cfg.Max {
			t.width = t.cfg.Max
		}
		t.calm = 0
	default:
		return t.width, false
	}
	t.hold = t.cfg.HoldPeriods
	return t.width, true
}

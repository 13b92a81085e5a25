package tuning

import (
	"testing"
	"time"
)

// newAdmTuner builds the controller the way a server does, over a gate
// currently width wide.
func newAdmTuner(cfg AdmissionConfig, width int) *admTuner {
	return NewAdmission(&fakeSystem{width: width}, cfg).(*admTuner)
}

func TestAdmTunerRules(t *testing.T) {
	at := newAdmTuner(AdmissionConfig{Min: 1, Max: 64, GrowAfter: 2, HoldPeriods: 1}, 32)
	// Abort storm (ratio 0.75): multiplicative decrease, then hold one
	// period even though the storm continues.
	if next, ch := at.step(25, 75); !ch || next != 16 {
		t.Fatalf("shrink step = (%d, %v), want (16, true)", next, ch)
	}
	if next, ch := at.step(25, 75); ch || next != 16 {
		t.Fatalf("hold step = (%d, %v), want (16, false)", next, ch)
	}
	if next, ch := at.step(25, 75); !ch || next != 8 {
		t.Fatalf("second shrink = (%d, %v), want (8, true)", next, ch)
	}
	// Middling ratio (between Grow and Shrink): hold forever.
	at.step(60, 40)
	for i := 0; i < 5; i++ {
		if next, ch := at.step(60, 40); ch || next != 8 {
			t.Fatalf("middling step = (%d, %v), want (8, false)", next, ch)
		}
	}
	// Calm (ratio 0): grow only after GrowAfter consecutive calm periods.
	if next, ch := at.step(100, 0); ch || next != 8 {
		t.Fatalf("first calm step = (%d, %v), want (8, false)", next, ch)
	}
	if next, ch := at.step(100, 0); !ch || next != 10 {
		t.Fatalf("grow step = (%d, %v), want (10, true)", next, ch)
	}
	// A single noisy period resets the calm streak.
	at.step(100, 0) // hold period
	at.step(60, 40) // noise: calm = 0
	if next, ch := at.step(100, 0); ch || next != 10 {
		t.Fatalf("calm after noise = (%d, %v), want (10, false)", next, ch)
	}
	// An idle period (no traffic at all) counts as calm: ratio 0.
	if next, ch := at.step(0, 0); !ch || next != 12 {
		t.Fatalf("grow after idle = (%d, %v), want (12, true)", next, ch)
	}
}

func TestAdmTunerNeverStarves(t *testing.T) {
	// The floor is Min (>= 1): a permanent abort storm must serialize
	// updates, never shut them off.
	at := newAdmTuner(AdmissionConfig{Min: 1, Max: 64, HoldPeriods: 1}, 64)
	for i := 0; i < 100; i++ {
		if next, _ := at.step(0, 100); next < 1 {
			t.Fatalf("width fell to %d under a permanent storm", next)
		}
	}
	if at.width != 1 {
		t.Fatalf("storm parked the width at %d, want the floor 1", at.width)
	}
	// At the floor a storm period is not a move: nothing to shrink.
	if _, ch := at.step(0, 100); ch {
		t.Fatal("shrink reported at the floor")
	}
}

func TestAdmTunerClamps(t *testing.T) {
	// Start above Max / below Min: clamped on construction.
	if at := newAdmTuner(AdmissionConfig{Min: 2, Max: 8}, 100); at.width != 8 {
		t.Fatalf("start width clamped to %d, want 8", at.width)
	}
	if at := newAdmTuner(AdmissionConfig{Min: 2, Max: 8}, 0); at.width != 2 {
		t.Fatalf("start width clamped to %d, want 2", at.width)
	}
	// Growth stops at Max.
	at := newAdmTuner(AdmissionConfig{Min: 1, Max: 10, GrowAfter: 1, HoldPeriods: 1}, 8)
	if next, ch := at.step(100, 0); !ch || next != 10 {
		t.Fatalf("grow toward Max = (%d, %v), want clamp at (10, true)", next, ch)
	}
	at.step(100, 0) // hold
	if next, ch := at.step(100, 0); ch || next != 10 {
		t.Fatalf("grow at Max = (%d, %v), want hold", next, ch)
	}
}

// TestRuntimeAdaptsAdmissionWidth is the deterministic fake-clock check
// of the acceptance criterion: the gate narrows while the write storm
// keeps manufacturing aborts, and probes back open once the storm ends.
func TestRuntimeAdaptsAdmissionWidth(t *testing.T) {
	const (
		periods  = 60
		flipTick = periods / 2 // phase boundary, in After ticks
		hotWidth = 2
	)
	rate := synthetic(p(10, 0, 1))
	// During the write-storm phase, any gate width above hotWidth makes
	// the admitted updaters mostly kill each other (abort ratio 0.75); at
	// or below it — and after the flip to the calm phase — aborts stop.
	env := newFakeSystem(p(10, 0, 1), periods, func(f *fakeSystem, d time.Duration) {
		dc := uint64(rate(f.params) * d.Seconds())
		f.commits += dc
		if f.ticks <= flipTick && f.width > hotWidth {
			f.aborts += 3 * dc
		}
	})
	cfg := env.config(Config{Initial: p(10, 0, 1), Seed: 3},
		NewAdmission(env, AdmissionConfig{Min: 1, Max: 64, GrowAfter: 2, HoldPeriods: 2}))
	cfg.Samples = 1
	rt := NewRuntime(env, cfg)
	trace := env.runToEnd(t, rt)
	if len(trace) == 0 {
		t.Fatal("empty trace")
	}
	// Phase 1: the storm must have squeezed the gate down to the calm
	// width (the synthetic surface keeps aborting until width <= hotWidth).
	if env.minWidth > hotWidth {
		t.Fatalf("storm phase narrowed the gate only to %d, want <= %d", env.minWidth, hotWidth)
	}
	// Phase 2: with the storm gone, the gate must have probed back open.
	final := trace[len(trace)-1].Decision(AdmissionName).To.N
	if final < 2*hotWidth {
		t.Fatalf("calm phase reopened the gate only to %d, want >= %d", final, 2*hotWidth)
	}
	if rt.Moves(AdmissionName) == 0 || rt.Moves(AdmissionName) != env.widthSets {
		t.Fatalf("controller counted %d width moves, the gate saw %d", rt.Moves(AdmissionName), env.widthSets)
	}
	if env.Width() != final || rt.Knob(AdmissionName).N != final {
		t.Fatalf("gate width %d / controller width %d diverged from trace's %d",
			env.Width(), rt.Knob(AdmissionName).N, final)
	}
}

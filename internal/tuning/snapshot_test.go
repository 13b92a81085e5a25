package tuning

import (
	"testing"
	"time"
)

// newSnapTuner builds the controller the way a server does, over a
// sidecar currently retaining budget versions per shard.
func newSnapTuner(cfg SnapshotConfig, budget int) *snapTuner {
	return NewBudget(&fakeSystem{budget: budget}, cfg).(*snapTuner)
}

func TestSnapTunerRules(t *testing.T) {
	st := newSnapTuner(SnapshotConfig{Min: 64, Max: 1024, ShrinkAfter: 2, HoldPeriods: 1}, 64)
	// Too-old aborts: grow, then hold one period.
	if next, ch := st.step(5, 100); !ch || next != 128 {
		t.Fatalf("grow step = (%d, %v), want (128, true)", next, ch)
	}
	if next, ch := st.step(5, 100); ch || next != 128 {
		t.Fatalf("hold step = (%d, %v), want (128, false)", next, ch)
	}
	if next, ch := st.step(5, 100); !ch || next != 256 {
		t.Fatalf("second grow = (%d, %v), want (256, true)", next, ch)
	}
	// Serving reads with no too-old aborts: exactly right, hold forever.
	st.step(0, 50)
	for i := 0; i < 5; i++ {
		if next, ch := st.step(0, 50); ch || next != 256 {
			t.Fatalf("serving step = (%d, %v), want (256, false)", next, ch)
		}
	}
	// Fully calm (no reads either): shrink after ShrinkAfter periods.
	st.step(0, 0)
	if next, ch := st.step(0, 0); !ch || next != 128 {
		t.Fatalf("shrink step = (%d, %v), want (128, true)", next, ch)
	}
	// Clamped at Max and Min.
	top := newSnapTuner(SnapshotConfig{Min: 64, Max: 100, HoldPeriods: 1}, 64)
	if next, _ := top.step(1, 0); next != 100 {
		t.Fatalf("grow past Max = %d, want clamp at 100", next)
	}
	top.step(1, 0)
	if next, ch := top.step(1, 0); ch || next != 100 {
		t.Fatalf("grow at Max = (%d, %v), want hold", next, ch)
	}
}

// TestRuntimeAdaptsVersionBudget is the deterministic fake-clock check of
// the acceptance criterion: the budget grows while the scan-heavy phase
// keeps producing snapshot-too-old aborts, and shrinks back once the
// phase flips write-heavy (no snapshot traffic at all).
func TestRuntimeAdaptsVersionBudget(t *testing.T) {
	const (
		periods  = 60
		flipTick = periods / 2 // phase boundary, in After ticks
		enough   = 512
	)
	rate := synthetic(p(10, 0, 1))
	// During the scan-heavy phase sidecar reads flow and snapshots keep
	// falling off the horizon (too-old aborts accrue) until the budget
	// reaches enough; after the flip to write-heavy both signals stop.
	env := newFakeSystem(p(10, 0, 1), periods, func(f *fakeSystem, d time.Duration) {
		f.commits += uint64(rate(f.params) * d.Seconds())
		if f.ticks <= flipTick {
			f.reads += 1000
			if f.budget < enough {
				f.tooOld += 10
			}
		}
	})
	cfg := env.config(Config{Initial: p(10, 0, 1), Seed: 3},
		NewBudget(env, SnapshotConfig{Min: 64, Max: 4096, ShrinkAfter: 3, HoldPeriods: 1}))
	cfg.Samples = 1
	rt := NewRuntime(env, cfg)
	trace := env.runToEnd(t, rt)
	if len(trace) == 0 {
		t.Fatal("empty trace")
	}
	// Phase 1: the budget must have grown to at least `enough` (the
	// synthetic surface keeps producing too-old aborts until then).
	maxBudget := 0
	for _, ev := range trace {
		if ev.Period <= flipTick {
			maxBudget = max(maxBudget, ev.Decision(BudgetName).To.N)
		}
	}
	if maxBudget < enough {
		t.Fatalf("scan-heavy phase grew the budget only to %d, want >= %d", maxBudget, enough)
	}
	// Phase 2: with snapshot traffic gone, the budget must shrink back
	// toward Min by the end of the run.
	final := trace[len(trace)-1].Decision(BudgetName).To.N
	if final > 64 {
		t.Fatalf("write-heavy phase ended with budget %d, want shrunk to 64", final)
	}
	if rt.Moves(BudgetName) == 0 || rt.Moves(BudgetName) != env.budgetSets {
		t.Fatalf("controller counted %d budget moves, the system saw %d", rt.Moves(BudgetName), env.budgetSets)
	}
	if env.budget != final {
		t.Fatalf("system budget %d diverged from controller's %d", env.budget, final)
	}
}

package experiments

import (
	"strings"
	"testing"
	"time"

	"tinystm/internal/core"
	"tinystm/internal/harness"
	"tinystm/internal/tuning"
	"tinystm/internal/vacation"
)

// tinyScale keeps every figure runner's full code path under a second.
func tinyScale() Scale {
	return Scale{
		Duration:   10 * time.Millisecond,
		Warmup:     2 * time.Millisecond,
		Threads:    []int{1, 2},
		Seed:       42,
		SpaceWords: 1 << 20,
	}
}

func TestSysString(t *testing.T) {
	if TinySTMWB.String() != "TinySTM-WB" || TinySTMWT.String() != "TinySTM-WT" || TL2.String() != "TL2" {
		t.Error("system names wrong")
	}
}

func TestRunIntsetPointAllSystems(t *testing.T) {
	sc := tinyScale()
	ip := harness.IntsetParams{Kind: harness.KindRBTree, InitialSize: 64, UpdatePct: 20}
	for _, sys := range AllSystems {
		p := RunIntsetPoint(sc, sys, defaultGeometry, ip, 2)
		if p.Throughput <= 0 {
			t.Errorf("%v: throughput = %f", sys, p.Throughput)
		}
		if p.Result.Delta.Commits == 0 {
			t.Errorf("%v: no commits", sys)
		}
	}
}

func TestFigure2And3Shapes(t *testing.T) {
	sc := tinyScale()
	r := Figure2(sc, 64, 20)
	if len(r.Values) != len(sc.Threads) || len(r.Values[0]) != len(AllSystems) {
		t.Fatalf("figure 2 shape wrong: %dx%d", len(r.Values), len(r.Values[0]))
	}
	for i, row := range r.Values {
		for j, v := range row {
			if v <= 0 {
				t.Errorf("fig2[%d][%d] = %f", i, j, v)
			}
		}
	}
	tbl := r.ToTable("throughput")
	var sb strings.Builder
	tbl.Render(&sb)
	if !strings.Contains(sb.String(), "TinySTM-WB") {
		t.Error("table missing series header")
	}

	r3 := Figure3(sc, 64, 0)
	for _, row := range r3.Values {
		for _, v := range row {
			if v <= 0 {
				t.Error("fig3 zero throughput")
			}
		}
	}
}

func TestFigure4AbortsAndOverwrite(t *testing.T) {
	sc := tinyScale()
	// Contended list: abort rates should be measurable at 2 threads.
	r := Figure4Aborts(sc, harness.KindList, 64, 20)
	if len(r.Values) != len(sc.Threads) {
		t.Fatal("shape wrong")
	}
	// The overwrite workload aborts heavily by design; widen the window
	// so every point commits at least once.
	sc.Duration = 40 * time.Millisecond
	ov := Figure4Overwrite(sc, 64, 5)
	for _, row := range ov.Values {
		for _, v := range row {
			if v <= 0 {
				t.Error("overwrite throughput zero")
			}
		}
	}
}

func TestFigure5Shape(t *testing.T) {
	sc := tinyScale()
	r := Figure5(sc, harness.KindRBTree, []int{32, 64}, []int{0, 20})
	if len(r.Values) != 2 || len(r.Values[0]) != 2 || len(r.Values[0][0]) != len(AllSystems) {
		t.Fatal("figure 5 shape wrong")
	}
	var sb strings.Builder
	tbl := r.ToTable()
	tbl.Render(&sb)
	if !strings.Contains(sb.String(), "update%") {
		t.Error("table missing header")
	}
}

func TestFigure6And8Sweep(t *testing.T) {
	sc := tinyScale()
	r := Figure6(sc, harness.KindRBTree, []int{8, 10}, []uint{0, 2})
	if len(r.Values) != 1 || len(r.Values[0]) != 2 || len(r.Values[0][0]) != 2 {
		t.Fatal("figure 6 shape wrong")
	}
	best, tp := r.Best()
	if tp <= 0 || best.Locks == 0 {
		t.Errorf("best = %+v / %f", best, tp)
	}

	r8 := Figure8(sc, harness.KindList, []int{8}, []uint{0})
	if len(r8.Values) != 3 { // h = 4, 16, 64
		t.Fatalf("figure 8 surfaces = %d, want 3", len(r8.Values))
	}
}

func TestFigure7Vacation(t *testing.T) {
	sc := tinyScale()
	// Vacation transactions are heavyweight and abort-prone under
	// contention; give each point a window long enough to always commit.
	sc.Duration = 40 * time.Millisecond
	vp := vacation.Params{Relations: 64, QueryPct: 90, UserPct: 80, QueriesPerTx: 2}
	r := Figure7(sc, vp, []int{10, 12}, []uint{0, 2})
	for _, row := range r.Values[0] {
		for _, v := range row {
			if v <= 0 {
				t.Error("vacation throughput zero")
			}
		}
	}
}

func TestFigure9Curves(t *testing.T) {
	sc := tinyScale()
	c := Figure9Locks(sc, []int{8, 10})
	if len(c.Series) != 4 {
		t.Fatalf("series = %d, want 4", len(c.Series))
	}
	for name, vals := range c.Series {
		if len(vals) != 2 {
			t.Errorf("%s: %d points", name, len(vals))
		}
		min := vals[0]
		for _, v := range vals {
			if v < min {
				min = v
			}
		}
		if min != 0 {
			t.Errorf("%s: improvement minimum = %f, want 0 (normalized)", name, min)
		}
	}
	cs := Figure9Shifts(sc, 10, []uint{0, 1})
	if len(cs.Series) != 4 {
		t.Error("shift panel series wrong")
	}
	ch := Figure9Hier(sc, 10, []uint64{4, 16})
	if len(ch.Series) != 4 {
		t.Error("hier panel series wrong")
	}
	var sb strings.Builder
	tbl := ch.ToTable()
	tbl.Render(&sb)
	if !strings.Contains(sb.String(), "%") {
		t.Error("improvement table missing percentages")
	}
}

// TestTuningFigureReconfigures drives the Figure 10/11/12 path: one
// workload phase, no static baselines, every number read from
// tuning.Runtime's events.
func TestTuningFigureReconfigures(t *testing.T) {
	sc := tinyScale()
	ac := AutotuneConfig{
		Phases:  []harness.IntsetParams{{Kind: harness.KindRBTree, InitialSize: 128, UpdatePct: 20}},
		Threads: 2, Periods: 8, Period: 5 * time.Millisecond, Samples: 2,
		Start: core.Params{Locks: 1 << 8, Shifts: 0, Hier: 1},
		Bounds: tuning.Bounds{
			MinLocks: 1 << 6, MaxLocks: 1 << 12,
			MinShifts: 0, MaxShifts: 3, MinHier: 1, MaxHier: 16,
		},
		Seed: 42,
	}
	r := AutotuneSweep(sc, ac)
	if len(r.Events) != ac.Periods {
		t.Fatalf("events = %d, want %d", len(r.Events), ac.Periods)
	}
	if len(r.Validation) != ac.Periods {
		t.Fatalf("validation samples = %d, want one per period (%d)", len(r.Validation), ac.Periods)
	}
	if len(r.Statics) != 0 {
		t.Errorf("%d static baselines measured, want none", len(r.Statics))
	}
	if first := r.Events[0].From; first != ac.Start {
		t.Errorf("first measured config = %+v, want start", first)
	}
	moved := 0
	for i, e := range r.Events {
		if e.Moved && e.Err == nil {
			moved++
		}
		if r.Validation[i].Config != e.From {
			t.Errorf("period %d: validation sample for %v, event measured %v", i, r.Validation[i].Config, e.From)
		}
	}
	if moved == 0 {
		t.Error("tuner never reconfigured")
	}
	if last := r.Events[len(r.Events)-1]; last.Err == nil && r.Final != last.To {
		t.Errorf("Final = %v, tuner ended at %v", r.Final, last.To)
	}
	if r.BestTp <= 0 {
		t.Error("no best throughput recorded")
	}
	var sb strings.Builder
	tt := r.TraceTable("test")
	tt.Render(&sb)
	vt := r.ValidationTable()
	vt.Render(&sb)
	if !strings.Contains(sb.String(), "processed") {
		t.Error("validation table malformed")
	}
}

func TestLog2(t *testing.T) {
	cases := map[uint64]int{1: 0, 2: 1, 4: 2, 1 << 16: 16, 1 << 24: 24}
	for v, want := range cases {
		if got := log2(v); got != want {
			t.Errorf("log2(%d) = %d, want %d", v, got, want)
		}
	}
}

func TestScalesAreComplete(t *testing.T) {
	for _, sc := range []Scale{PaperScale(), QuickScale()} {
		if sc.Duration == 0 || len(sc.Threads) == 0 || sc.SpaceWords == 0 {
			t.Errorf("incomplete scale: %+v", sc)
		}
	}
}

func TestContendedScaleSurfacesAborts(t *testing.T) {
	sc := tinyScale()
	sc.YieldEvery = 2
	sc.Duration = 30 * time.Millisecond
	ip := harness.IntsetParams{Kind: harness.KindList, InitialSize: 64, UpdatePct: 50}
	p := RunIntsetPoint(sc, TinySTMWB, defaultGeometry, ip, 2)
	if p.Result.Delta.Commits == 0 {
		t.Fatal("no commits under yield")
	}
	// Aborts are probabilistic but should almost always appear with
	// yield-every-2 on a contended list; warn rather than fail.
	if p.Result.Delta.Aborts == 0 {
		t.Log("no aborts surfaced; unusual under yield=2")
	}
}

func TestRepeatsKeepsMaximum(t *testing.T) {
	sc := tinyScale()
	sc.Repeats = 3
	ip := harness.IntsetParams{Kind: harness.KindRBTree, InitialSize: 64, UpdatePct: 20}
	p := RunIntsetPoint(sc, TinySTMWB, defaultGeometry, ip, 1)
	if p.Throughput <= 0 {
		t.Fatal("no throughput with repeats")
	}
}

func TestAutotuneSweepRunsAndCompares(t *testing.T) {
	sc := tinyScale()
	calm := harness.IntsetParams{Kind: harness.KindList, InitialSize: 64, UpdatePct: 20}
	hot := calm
	hot.UpdatePct = 80
	var observed int
	ac := AutotuneConfig{
		Phases: []harness.IntsetParams{calm, hot}, ShiftEvery: 3,
		Threads: 2, Periods: 6, Period: 5 * time.Millisecond, Samples: 2,
		Start: core.Params{Locks: 1 << 8, Shifts: 0, Hier: 1},
		Bounds: tuning.Bounds{
			MinLocks: 1 << 6, MaxLocks: 1 << 12,
			MinShifts: 0, MaxShifts: 3, MinHier: 1, MaxHier: 8,
		},
		Statics: []core.Params{
			{Locks: 1 << 8, Shifts: 0, Hier: 1},
			{Locks: 1 << 12, Shifts: 0, Hier: 1},
		},
		Seed:    42,
		OnEvent: func(tuning.Event) { observed++ },
	}
	r := AutotuneSweep(sc, ac)
	if len(r.Events) != ac.Periods {
		t.Fatalf("events = %d, want %d", len(r.Events), ac.Periods)
	}
	if observed != ac.Periods {
		t.Errorf("OnEvent fired %d times, want %d", observed, ac.Periods)
	}
	if len(r.EventPhases) != ac.Periods {
		t.Fatalf("event phases = %d, want %d", len(r.EventPhases), ac.Periods)
	}
	// ShiftEvery=3 over 6 periods: phases 0,0,0,1,1,1.
	for i, phase := range r.EventPhases {
		if want := i / ac.ShiftEvery; phase != want {
			t.Errorf("event %d phase = %d, want %d", i, phase, want)
		}
	}
	if len(r.Statics) != len(ac.Statics)*len(ac.Phases) {
		t.Fatalf("statics = %d, want %d", len(r.Statics), len(ac.Statics)*len(ac.Phases))
	}
	if len(r.BestStatic) != len(ac.Phases) || len(r.PhaseTuned) != len(ac.Phases) || len(r.PhaseSpan) != len(ac.Phases) {
		t.Fatalf("per-phase slices sized %d/%d/%d, want %d", len(r.BestStatic), len(r.PhaseTuned), len(r.PhaseSpan), len(ac.Phases))
	}
	for phase, bs := range r.BestStatic {
		if bs.Throughput <= 0 {
			t.Errorf("phase %d: no best static throughput", phase)
		}
		if bs.Phase != phase {
			t.Errorf("phase %d: best static tagged with phase %d", phase, bs.Phase)
		}
	}
	if r.BestTp <= 0 {
		t.Error("no autotuned best throughput")
	}
	var sb strings.Builder
	tt := r.TraceTable("test")
	tt.Render(&sb)
	ct := r.ComparisonTable()
	ct.Render(&sb)
	if !strings.Contains(sb.String(), "autotuned (median, last third of phase)") {
		t.Error("comparison table malformed")
	}
}

func TestSnapshotSweepShapes(t *testing.T) {
	sc := tinyScale()
	cfg := DefaultSnapshotConfig(sc)
	cfg.Keys = 512
	cfg.Writers = []int{2}
	cfg.Budgets = []int{64}
	// Two spinning writers on two cores can keep the scanner off the CPU
	// for a whole 10 ms scheduler time slice; the window must outlast that
	// for "the scanner read something" to be about snapshots.
	cfg.Duration = 100 * time.Millisecond
	r := SnapshotSweep(sc, cfg)
	if len(r.Points) != 2 {
		t.Fatalf("got %d points, want 2 (off + one budget)", len(r.Points))
	}
	if r.Points[0].Mode != "off" || r.Points[1].Mode != "on/64" {
		t.Fatalf("modes %q, %q", r.Points[0].Mode, r.Points[1].Mode)
	}
	// The scanners are the only snapshot readers, so the TM's restarts by
	// cause account for every too-old retry they suffered.
	for _, pt := range r.Points {
		var sum uint64
		for _, n := range pt.Restarts {
			sum += n
		}
		if sum != pt.ScanTooOld {
			t.Errorf("%s: restarts by cause %v sum to %d, too-old retries %d", pt.Mode, pt.Restarts, sum, pt.ScanTooOld)
		}
	}
	on := r.Points[1]
	if on.ScanROAborts != 0 {
		t.Errorf("snapshot scans suffered %d read-only aborts", on.ScanROAborts)
	}
	if on.KeyRate == 0 {
		t.Error("snapshot scans read no keys")
	}
	tbl := r.ToTable()
	if !strings.Contains(tbl.Title, "snapshots off vs. on") {
		t.Errorf("table title %q", tbl.Title)
	}
}

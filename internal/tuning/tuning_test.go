package tuning

import (
	"math"
	"math/bits"
	"reflect"
	"testing"

	"tinystm/internal/core"
)

func p(locksExp int, shifts uint, hier uint64) core.Params {
	return core.Params{Locks: 1 << locksExp, Shifts: shifts, Hier: hier}
}

// synthetic builds a smooth unimodal throughput surface peaking at the
// given optimum; distance in (log-locks, shifts, log-h) space.
func synthetic(opt core.Params) func(core.Params) float64 {
	return func(q core.Params) float64 {
		dl := float64(bits.TrailingZeros64(q.Locks) - bits.TrailingZeros64(opt.Locks))
		ds := float64(int(q.Shifts) - int(opt.Shifts))
		dh := float64(bits.TrailingZeros64(q.Hier) - bits.TrailingZeros64(opt.Hier))
		d2 := dl*dl + ds*ds + dh*dh
		return 1000 * math.Exp(-d2/40)
	}
}

func TestMovesApply(t *testing.T) {
	base := p(10, 3, 4)
	cases := []struct {
		m    Move
		want core.Params
	}{
		{MoveDoubleLocks, p(11, 3, 4)},
		{MoveHalveLocks, p(9, 3, 4)},
		{MoveIncShifts, p(10, 4, 4)},
		{MoveDecShifts, p(10, 2, 4)},
		{MoveDoubleHier, p(10, 3, 8)},
		{MoveHalveHier, p(10, 3, 2)},
		{MoveNop, base},
	}
	for _, c := range cases {
		if got := apply(base, c.m); got != c.want {
			t.Errorf("apply(%v) = %+v, want %+v", c.m, got, c.want)
		}
	}
}

func TestLegalRespectsBounds(t *testing.T) {
	tr := New(Config{Initial: p(8, 0, 1), Bounds: Bounds{
		MinLocks: 1 << 8, MaxLocks: 1 << 10,
		MinShifts: 0, MaxShifts: 2,
		MinHier: 1, MaxHier: 4,
	}})
	if tr.legal(p(10, 0, 1), MoveDoubleLocks) {
		t.Error("doubling locks past MaxLocks allowed")
	}
	if tr.legal(p(8, 0, 1), MoveHalveLocks) {
		t.Error("halving locks past MinLocks allowed")
	}
	if tr.legal(p(9, 2, 1), MoveIncShifts) {
		t.Error("shift increase past MaxShifts allowed")
	}
	if tr.legal(p(9, 0, 1), MoveDecShifts) {
		t.Error("shift decrease below zero allowed")
	}
	if tr.legal(p(9, 0, 4), MoveDoubleHier) {
		t.Error("hier growth past MaxHier allowed")
	}
	if tr.legal(p(9, 0, 1), MoveHalveHier) {
		t.Error("halving hier below 1 allowed")
	}
	// h may never exceed the lock count.
	tr2 := New(Config{Initial: p(2, 0, 4), Bounds: Bounds{
		MinLocks: 1 << 1, MaxLocks: 1 << 10,
		MaxShifts: 2, MinHier: 1, MaxHier: 256,
	}})
	if tr2.legal(p(2, 0, 4), MoveDoubleHier) {
		t.Error("hier allowed to exceed lock count")
	}
	if tr2.legal(p(2, 0, 4), MoveHalveLocks) {
		t.Error("locks allowed to drop below hier")
	}
}

func TestStepExploresUncharted(t *testing.T) {
	tr := New(Config{Initial: p(10, 2, 4), Seed: 1})
	next, move, _ := tr.Step(100)
	if move < MoveDoubleLocks || move > MoveHalveHier {
		t.Fatalf("first move = %v, want an exploratory move 1-6", move)
	}
	if next == p(10, 2, 4) {
		t.Fatal("tuner did not move")
	}
	if _, seen := tr.memory[next]; seen {
		t.Fatal("moved to a charted configuration")
	}
}

func TestReverseOnTwoPercentDrop(t *testing.T) {
	tr := New(Config{Initial: p(10, 0, 1), Seed: 3})
	tr.Step(1000)                     // at initial, move somewhere
	_, move, reversed := tr.Step(900) // 10% drop: must reverse (and explore from best)
	if !reversed && move != MoveReverse {
		t.Fatalf("no reverse after big drop (move=%v)", move)
	}
}

func TestNoReverseOnSmallDrop(t *testing.T) {
	tr := New(Config{Initial: p(10, 0, 1), Seed: 3})
	tr.Step(1000)
	if _, _, reversed := tr.Step(995); reversed { // 0.5% drop: keep climbing
		t.Fatal("reversed on a 0.5% drop")
	}
}

func TestForbiddenAreaAfterBigShiftDrop(t *testing.T) {
	tr := New(Config{Initial: p(10, 2, 1), Seed: 1})
	// Manufacture the state: pretend the last move was IncShifts to 3 and
	// the throughput collapsed.
	tr.memory[p(10, 2, 1)] = 1000
	tr.cur = p(10, 3, 1)
	tr.last = MoveIncShifts
	tr.prevTp, tr.hasPrev = 1000, true
	tr.Step(500)
	if tr.maxShifts != 2 {
		t.Errorf("maxShifts = %d, want clamped to 2", tr.maxShifts)
	}
	if tr.legal(p(10, 2, 1), MoveIncShifts) {
		t.Error("move into forbidden area still legal")
	}
}

func TestForbiddenAreaAfterBigHierDrop(t *testing.T) {
	tr := New(Config{Initial: p(10, 0, 4), Seed: 1})
	tr.memory[p(10, 0, 4)] = 1000
	tr.cur = p(10, 0, 8)
	tr.last = MoveDoubleHier
	tr.prevTp, tr.hasPrev = 1000, true
	tr.Step(500)
	if tr.maxHier != 4 {
		t.Errorf("maxHier = %d, want clamped to 4", tr.maxHier)
	}
}

func TestNopAtExploredOptimum(t *testing.T) {
	// Tiny space: 2 lock sizes only, no shifts, no hier.
	b := Bounds{MinLocks: 1 << 8, MaxLocks: 1 << 9, MinShifts: 0, MaxShifts: 0, MinHier: 1, MaxHier: 1}
	tr := New(Config{Initial: p(8, 0, 1), Bounds: b, Seed: 1})
	tr.Step(1000) // explores the only neighbour 2^9
	tr.Step(1100) // better; neighbours of 2^9: only 2^8, charted
	_, move, _ := tr.Step(1100)
	if move != MoveNop {
		t.Errorf("move = %v, want nop at fully-explored optimum", move)
	}
}

func TestSecondBestSwitch(t *testing.T) {
	b := Bounds{MinLocks: 1 << 8, MaxLocks: 1 << 9, MinShifts: 0, MaxShifts: 0, MinHier: 1, MaxHier: 1}
	tr := New(Config{Initial: p(8, 0, 1), Bounds: b, Seed: 1})
	tr.Step(1000) // memory[2^8]=1000, move to 2^9
	tr.Step(1100) // memory[2^9]=1100, best; no uncharted → nop
	// Throughput at best collapses below second best (1000): switch.
	next, move, _ := tr.Step(900)
	if move != MoveSecondBest {
		t.Fatalf("move = %v, want second-best switch", move)
	}
	if next != p(8, 0, 1) {
		t.Fatalf("next = %+v, want the second-best configuration", next)
	}
}

func TestConvergesToSyntheticOptimum(t *testing.T) {
	opt := p(18, 3, 4)
	f := synthetic(opt)
	for seed := uint64(1); seed <= 5; seed++ {
		tr := New(Config{Initial: p(8, 0, 1), Seed: seed})
		cur := tr.Current()
		for i := 0; i < 400; i++ {
			cur, _, _ = tr.Step(f(cur))
		}
		best, bestTp := tr.Best()
		if bestTp < f(opt)*0.85 {
			t.Errorf("seed %d: best %+v tp %.1f < 85%% of optimum %.1f",
				seed, best, bestTp, f(opt))
		}
	}
}

// step is one collected Step call: what was measured where, and what the
// tuner returned. The tuner keeps no log of its own, so tests that look at
// the path build it from these.
type step struct {
	at       core.Params
	tp       float64
	next     core.Params
	move     Move
	reversed bool
}

// drive feeds the tuner n measurements from f and collects every Step.
func drive(tr *Tuner, n int, f func(i int, at core.Params) float64) []step {
	path := make([]step, n)
	for i := range path {
		s := step{at: tr.Current()}
		s.tp = f(i, s.at)
		s.next, s.move, s.reversed = tr.Step(s.tp)
		path[i] = s
	}
	return path
}

func TestDeterministicUnderSeed(t *testing.T) {
	f := synthetic(p(16, 2, 4))
	run := func() []step {
		tr := New(Config{Initial: p(8, 0, 1), Seed: 42})
		return drive(tr, 100, func(_ int, at core.Params) float64 { return f(at) })
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("path diverges at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestTraceRecordsMeasurements(t *testing.T) {
	tr := New(Config{Initial: p(10, 0, 1), Seed: 9})
	path := drive(tr, 2, func(i int, _ core.Params) float64 { return 500 + 100*float64(i) })
	if path[0].at != p(10, 0, 1) {
		t.Error("first measured config wrong")
	}
	if path[0].next != path[1].at {
		t.Error("path chain broken: Step's next is not the configuration measured next")
	}
	for _, s := range path {
		if tr.memory[s.at] != s.tp {
			t.Errorf("memory[%v] = %v, want the measured %v", s.at, tr.memory[s.at], s.tp)
		}
	}
}

// TestTunerKeepsNoPerStepState: a daemon tunes forever, so nothing the
// tuner retains may grow with the number of periods. Every slice and map
// in the struct is bounded by the configurations its bounds admit.
func TestTunerKeepsNoPerStepState(t *testing.T) {
	b := Bounds{MinLocks: 1 << 8, MaxLocks: 1 << 10, MinShifts: 0, MaxShifts: 1, MinHier: 1, MaxHier: 2}
	const configs = 3 * 2 * 2
	tr := New(Config{Initial: p(8, 0, 1), Bounds: b, Seed: 7})
	drive(tr, 10000, func(i int, _ core.Params) float64 { return float64(1000 + i%97) })
	v := reflect.ValueOf(tr).Elem()
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.Kind() == reflect.Slice || f.Kind() == reflect.Map {
			if f.Len() > configs {
				t.Errorf("Tuner.%s holds %d entries after 10000 steps over %d configurations",
					v.Type().Field(i).Name, f.Len(), configs)
			}
		}
	}
}

func TestBestTracksMostRecentThroughput(t *testing.T) {
	// Memory keeps the most recent throughput per configuration: a stale
	// high reading must be replaced.
	b := Bounds{MinLocks: 1 << 8, MaxLocks: 1 << 9, MinShifts: 0, MaxShifts: 0, MinHier: 1, MaxHier: 1}
	tr := New(Config{Initial: p(8, 0, 1), Bounds: b, Seed: 1})
	tr.Step(1000)
	tr.Step(500) // memory: 2^8→1000 (best), 2^9→500; reverses to 2^8
	if best, tp := tr.Best(); best != p(8, 0, 1) || tp != 1000 {
		t.Fatalf("best = %+v/%.0f", best, tp)
	}
	// Re-measure 2^8 lower: best record must update.
	tr.Step(400)
	if _, tp := tr.Best(); tp != 500 {
		t.Fatalf("best tp = %.0f, want 500 (2^9's most recent)", tp)
	}
}

package tuning

import (
	"testing"
	"time"

	"tinystm/internal/cm"
	"tinystm/internal/core"
)

// cmTuner unit tests: the ladder climber is a pure decision engine.

// newCMTuner builds the controller the way a server does, over a system
// currently running start.
func newCMTuner(cfg CMConfig, start cm.Kind) *cmTuner {
	return NewCM(&fakeSystem{kind: start}, cfg).(*cmTuner)
}

func TestCMTunerEscalatesOnHighAbortRatio(t *testing.T) {
	ct := newCMTuner(CMConfig{HoldPeriods: 1}, cm.Suicide)
	next, switched := ct.step(1000, 10, 90, true) // ratio 0.9
	if !switched || next != cm.Backoff {
		t.Fatalf("step = (%v, %v), want escalate to backoff", next, switched)
	}
	// Hold: the fresh policy runs unchallenged for HoldPeriods.
	if next, switched = ct.step(1000, 10, 90, true); switched {
		t.Fatalf("switched during hold to %v", next)
	}
	if next, switched = ct.step(1000, 10, 90, true); !switched || next != cm.Karma {
		t.Fatalf("step = (%v, %v), want escalate to karma after hold", next, switched)
	}
}

func TestCMTunerRetreatsToBestOnThroughputDrop(t *testing.T) {
	ct := newCMTuner(CMConfig{HoldPeriods: 1}, cm.Suicide)
	// Suicide measures 10000 at a healthy ratio: no move.
	if _, switched := ct.step(10000, 100, 1, true); switched {
		t.Fatal("moved off a healthy best policy")
	}
	// Livelock storm: escalate to backoff...
	if next, _ := ct.step(9000, 10, 90, true); next != cm.Backoff {
		t.Fatal("did not escalate")
	}
	ct.step(2000, 100, 1, true) // hold period: the fresh policy gets its grace
	// ...then backoff keeps measuring far below the best seen, at a calm
	// ratio: retreat to the winner.
	next, switched := ct.step(2000, 100, 1, true)
	if !switched || next != cm.Suicide {
		t.Fatalf("step = (%v, %v), want retreat to suicide", next, switched)
	}
}

func TestCMTunerDeescalatesWhenCalm(t *testing.T) {
	ct := newCMTuner(CMConfig{HoldPeriods: 1}, cm.Karma)
	next, switched := ct.step(5000, 1000, 1, true) // ratio ~0.001: probe down
	if !switched || next != cm.Backoff {
		t.Fatalf("step = (%v, %v), want de-escalate to backoff", next, switched)
	}
	ct.step(2000, 1000, 1, true) // hold period
	// The rung below then measures much worse: back up it goes.
	next, switched = ct.step(2000, 1000, 1, true)
	if !switched || next != cm.Karma {
		t.Fatalf("step = (%v, %v), want retreat to karma", next, switched)
	}
	ct.step(5000, 1000, 1, true) // hold period
	// And with karma re-measured best and the floor known-worse, calm
	// ratios no longer bounce it down: the memory damps oscillation.
	if next, switched = ct.step(5000, 1000, 1, true); switched {
		t.Fatalf("oscillated down again to %v", next)
	}
}

func TestCMTunerStartOffLadder(t *testing.T) {
	ct := newCMTuner(CMConfig{Ladder: []cm.Kind{cm.Karma, cm.Serializer}, HoldPeriods: 0}, cm.Suicide)
	if got := ct.current(); got != cm.Suicide {
		t.Fatalf("current = %v, want the system's actual policy", got)
	}
	if next, switched := ct.step(100, 5, 95, true); !switched || next != cm.Karma {
		t.Fatalf("first escalation = %v, want karma (first ladder rung)", next)
	}
}

// policyLoad is a fake-clock workload whose commit rate and abort ratio
// depend on both the geometry and the contention-management policy.
func policyLoad(profile func(core.Params, cm.Kind) (rate, abortRatio float64)) func(*fakeSystem, time.Duration) {
	return func(f *fakeSystem, d time.Duration) {
		rate, ar := profile(f.params, f.kind)
		dc := rate * d.Seconds()
		f.commits += uint64(dc)
		if ar > 0 && ar < 1 {
			f.aborts += uint64(dc * ar / (1 - ar)) // so aborts/(commits+aborts) == ar
		}
	}
}

// The acceptance scenario: a livelock-prone configuration (Suicide under a
// retry storm) that no geometry move can fix — only a policy switch drops
// the abort rate. The runtime, on a fully deterministic fake clock, must
// escape by climbing the policy ladder, the observed abort ratio must
// drop, and the final (geometry, policy) point must yield throughput
// within 10% of the best the run ever saw.
func TestRuntimeEscapesLivelockBySwitchingPolicy(t *testing.T) {
	start := p(8, 0, 1)
	opt := p(16, 2, 4)
	geom := synthetic(opt) // geometry component: peaks at opt
	// Policy component: Suicide livelocks (high abort ratio, tiny
	// throughput); heavier policies trade a little overhead for
	// progressively saner abort rates, peaking at Karma.
	base := map[cm.Kind]struct{ factor, ratio float64 }{
		cm.Suicide:    {0.10, 0.92},
		cm.Backoff:    {0.45, 0.70},
		cm.Karma:      {1.00, 0.30},
		cm.Timestamp:  {0.90, 0.25},
		cm.Serializer: {0.70, 0.04},
	}
	profile := func(pp core.Params, k cm.Kind) (float64, float64) {
		b := base[k]
		return geom(pp) * b.factor, b.ratio
	}
	const periods = 300
	env := newFakeSystem(start, periods*3, policyLoad(profile))
	rt := NewRuntime(env, env.config(Config{Initial: start, Seed: 7}, NewCM(env, CMConfig{})))
	trace := env.runToEnd(t, rt)
	if len(trace) < periods-1 {
		t.Fatalf("trace has %d events, want ~%d", len(trace), periods)
	}
	switched := 0
	bestTp := 0.0
	for _, ev := range trace {
		if ev.Decision(CMName).Moved {
			switched++
		}
		if ev.Throughput > bestTp {
			bestTp = ev.Throughput
		}
	}
	if switched == 0 || rt.Moves(CMName) != switched || env.cmSwitches != switched {
		t.Fatalf("trace carries %d policy switches, Moves = %d, the system saw %d; want equal and non-zero",
			switched, rt.Moves(CMName), env.cmSwitches)
	}
	if final := rt.Knob(CMName); final.N == int(cm.Suicide) {
		t.Fatal("runtime is still on the livelock-prone policy")
	}
	// The abort ratio must have dropped: compare the first period against
	// the last.
	ratio := func(ev Event) float64 {
		if ev.Commits+ev.Aborts == 0 {
			return 0
		}
		return float64(ev.Aborts) / float64(ev.Commits+ev.Aborts)
	}
	firstR, lastR := ratio(trace[0]), ratio(trace[len(trace)-1])
	if lastR >= firstR {
		t.Errorf("abort ratio did not drop: %.2f -> %.2f", firstR, lastR)
	}
	if lastR > 0.5 {
		t.Errorf("final abort ratio %.2f still in livelock territory", lastR)
	}
	// Final (geometry, policy) throughput within 10% of the best seen.
	finalRate, _ := profile(env.Params(), env.CM())
	if finalRate < bestTp*0.9 {
		t.Errorf("final point yields %.0f, more than 10%% below best seen %.0f (params %v, cm %v)",
			finalRate, bestTp, env.Params(), env.CM())
	}
}

// Same seed, same profile: the combined geometry+policy walk must be
// reproducible event for event (the controller adds no nondeterminism).
func TestRuntimeCMDeterministicUnderSeed(t *testing.T) {
	profile := func(pp core.Params, k cm.Kind) (float64, float64) {
		r := synthetic(p(14, 1, 2))(pp)
		if k == cm.Suicide {
			return r * 0.2, 0.8
		}
		return r, 0.1
	}
	run := func() []Event {
		env := newFakeSystem(p(8, 0, 1), 80*3, policyLoad(profile))
		rt := NewRuntime(env, env.config(Config{Initial: p(8, 0, 1), Seed: 42}, NewCM(env, CMConfig{})))
		return env.runToEnd(t, rt)
	}
	sameTrace(t, run(), run())
}

// The live core.TM satisfies CMSystem and applies switches end to end.
func TestCoreTMIsCMSystem(t *testing.T) {
	var _ CMSystem = (*core.TM)(nil)
}

// A ladder containing invalid kinds must be sanitized before the
// controller can climb onto a rung SetCM would reject.
func TestCMConfigDropsInvalidLadderKinds(t *testing.T) {
	cfg := CMConfig{Ladder: []cm.Kind{cm.Suicide, cm.Kind(9), cm.Karma}}.withDefaults()
	if len(cfg.Ladder) != 2 || cfg.Ladder[0] != cm.Suicide || cfg.Ladder[1] != cm.Karma {
		t.Fatalf("ladder not sanitized: %v", cfg.Ladder)
	}
	// All-invalid ladders fall back to the default.
	cfg = CMConfig{Ladder: []cm.Kind{cm.Kind(9)}}.withDefaults()
	if len(cfg.Ladder) != len(cm.AllKinds) {
		t.Fatalf("all-invalid ladder did not fall back: %v", cfg.Ladder)
	}
}

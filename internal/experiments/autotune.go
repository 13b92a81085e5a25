package experiments

import (
	"fmt"
	"time"

	"tinystm/internal/core"
	"tinystm/internal/harness"
	"tinystm/internal/tuning"
)

// AutotuneConfig parameterizes the AutotuneSweep experiment: the online
// tuning runtime (tuning.Runtime) against a live, optionally
// phase-shifting workload, compared with statically configured baselines.
// With one phase and no baselines it is the paper's dynamic-tuning
// experiment (Figures 10, 11 and 12).
type AutotuneConfig struct {
	// Phases are the workload mixes; the run starts in Phases[0] and the
	// workload flips to the next phase (cyclically) every ShiftEvery
	// periods when ShiftEvery > 0. A single phase disables shifting.
	Phases     []harness.IntsetParams
	ShiftEvery int
	Threads    int
	// Periods is the number of tuning decisions to observe; Period and
	// Samples mirror tuning.RuntimeConfig (max-of-Samples per decision).
	Periods int
	Period  time.Duration
	Samples int
	// Start is the initial configuration; the paper's evaluation starts
	// from a deliberately bad (2^8, 0, 1).
	Start  core.Params
	Bounds tuning.Bounds
	// Statics are baseline configurations each measured with a fixed
	// geometry over the Phases[0] workload for the autotuned-vs-static
	// comparison.
	Statics []core.Params
	Seed    uint64
	// OnEvent, when non-nil, observes each tuning period as it completes
	// (live trace printing in cmd/stmbench).
	OnEvent func(tuning.Event)
}

// DefaultAutotuneConfig mirrors Section 4.3's setup — list workload,
// (2^8, 0, 1) start — with a mid-run update-rate phase shift and the
// paper's fixed default geometry among the static baselines.
func DefaultAutotuneConfig(sc Scale, kind harness.Kind) AutotuneConfig {
	calm := harness.IntsetParams{Kind: kind, InitialSize: 4096, UpdatePct: 20}
	hot := calm
	hot.UpdatePct = 80
	hot.Range = 1024 // shrink the working set: conflicts concentrate
	periods := 30
	return AutotuneConfig{
		Phases: []harness.IntsetParams{calm, hot}, ShiftEvery: periods / 2,
		Threads: sc.Threads[len(sc.Threads)-1],
		Periods: periods, Period: sc.Duration, Samples: 3,
		Start:  core.Params{Locks: 1 << 8, Shifts: 0, Hier: 1},
		Bounds: tuning.DefaultBounds(),
		Statics: []core.Params{
			{Locks: 1 << 8, Shifts: 0, Hier: 1},  // the bad start itself
			{Locks: 1 << 16, Shifts: 0, Hier: 1}, // the paper's production default
			defaultGeometry,                      // 2^20, the figures' fixed geometry
		},
		Seed: sc.Seed,
	}
}

// ValidationSample records, for one tuning period, the rate of read-set
// locks individually validated versus skipped via the hierarchical fast
// path (the two series of Figure 12).
type ValidationSample struct {
	Config          core.Params
	ProcessedPerSec float64
	SkippedPerSec   float64
}

// StaticPoint is one statically configured baseline measurement under one
// workload phase.
type StaticPoint struct {
	Params     core.Params
	Phase      int
	Throughput float64
}

// AutotuneResult is the outcome of one AutotuneSweep run.
type AutotuneResult struct {
	// Events is the runtime's per-period trace; EventPhases[i] is the
	// workload phase that was active during Events[i].
	Events      []tuning.Event
	EventPhases []int
	// Validation[i] is the validation counters' rate over Events[i]'s
	// period, differenced from tm.Stats() between events.
	Validation []ValidationSample
	// Best/BestTp are the best configuration the tuner saw and its
	// recorded throughput; Final is where the tuner ended.
	Best   core.Params
	BestTp float64
	Final  core.Params
	// PhaseBest[p] is the best autotuned per-period throughput observed
	// while phase p was active (zero if the run never visited the phase).
	PhaseBest []float64
	// Statics holds every (configuration × phase) baseline measurement;
	// BestStatic[p] is the best static point for phase p. Comparing
	// within a phase keeps autotuned-vs-static apples-to-apples: phases
	// differ in offered work per operation, so cross-phase throughput
	// comparison would credit the tuner with workload artifacts.
	Statics    []StaticPoint
	BestStatic []StaticPoint
}

// TraceTable renders the per-period path (configuration, throughput, move)
// like the Figure 10/11 tables, with idle periods marked.
func (r AutotuneResult) TraceTable(title string) harness.Table {
	tbl := harness.Table{Title: title,
		Headers: []string{"period", "phase", "locks", "shifts", "h", "throughput (10^3/s)", "move"}}
	for i, e := range r.Events {
		move := "idle"
		if !e.Idle {
			move = e.Move.Signed(e.Reversed)
		}
		phase := 0
		if i < len(r.EventPhases) {
			phase = r.EventPhases[i]
		}
		tbl.AddRow(e.Period, phase, fmt.Sprintf("2^%d", log2(e.From.Locks)), e.From.Shifts,
			e.From.Hier, fmt.Sprintf("%.1f", e.Throughput/1000), move)
	}
	return tbl
}

// ValidationTable renders the Figure 12 data.
func (r AutotuneResult) ValidationTable() harness.Table {
	tbl := harness.Table{
		Title: "Figure 12: locks processed or skipped during validation (10^6/s)",
		Headers: []string{"period", "locks", "shifts", "h",
			"processed (10^6/s)", "skipped (10^6/s)"},
	}
	for i, v := range r.Validation {
		tbl.AddRow(i, fmt.Sprintf("2^%d", log2(v.Config.Locks)), v.Config.Shifts,
			v.Config.Hier,
			fmt.Sprintf("%.2f", v.ProcessedPerSec/1e6),
			fmt.Sprintf("%.2f", v.SkippedPerSec/1e6))
	}
	return tbl
}

func log2(v uint64) int {
	n := 0
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// ComparisonTable renders autotuned-vs-static throughput, phase by phase
// (throughput is only comparable within one workload phase).
func (r AutotuneResult) ComparisonTable() harness.Table {
	tbl := harness.Table{
		Title:   "autotuned vs. static configurations (per workload phase)",
		Headers: []string{"phase", "configuration", "locks", "shifts", "h", "throughput (10^3/s)"},
	}
	for phase := range r.PhaseBest {
		for _, s := range r.Statics {
			if s.Phase != phase {
				continue
			}
			tbl.AddRow(phase, "static", fmt.Sprintf("2^%d", log2(s.Params.Locks)),
				s.Params.Shifts, s.Params.Hier, fmt.Sprintf("%.1f", s.Throughput/1000))
		}
		tbl.AddRow(phase, "autotuned (best in phase)", "", "", "",
			fmt.Sprintf("%.1f", r.PhaseBest[phase]/1000))
	}
	return tbl
}

// AutotuneSweep runs the online tuning runtime against a live workload —
// no manual driving: the controller goroutine meters, decides and
// reconfigures on its own — then measures each static baseline on a fresh
// system for comparison. With ShiftEvery > 0 the workload phase flips
// mid-run, exercising re-adaptation.
func AutotuneSweep(sc Scale, ac AutotuneConfig) AutotuneResult {
	if len(ac.Phases) == 0 {
		panic("experiments: AutotuneConfig needs at least one phase")
	}
	tm := newCoreTM(sc, core.WriteBack, ac.Start)
	base := ac.Phases[0]
	set := harness.BuildIntset[*core.Tx](tm, base, ac.Seed)
	phased := harness.IntsetPhases[*core.Tx](tm, set, ac.Phases...)
	workers := harness.StartWorkers[*core.Tx](tm, ac.Threads, ac.Seed, phased.Op())
	defer workers.Stop()

	// Normalize the sample count here so the static-baseline windows below
	// match what the runtime actually does (its own default is 3).
	samples := ac.Samples
	if samples <= 0 {
		samples = 3
	}
	trace := make(chan tuning.Event, ac.Periods+8)
	rt := tuning.NewRuntime(tm, tuning.RuntimeConfig{
		Tuner:  tuning.Config{Initial: ac.Start, Bounds: ac.Bounds, Seed: ac.Seed},
		Period: ac.Period, Samples: samples, Trace: trace,
	})
	if err := rt.Start(); err != nil {
		panic(fmt.Sprintf("experiments: autotune start: %v", err))
	}

	var result AutotuneResult
	result.PhaseBest = make([]float64, len(ac.Phases))
	lastStats, lastT := tm.Stats(), time.Now()
	for len(result.Events) < ac.Periods {
		ev := <-trace
		phase := phased.Phase()
		st, now := tm.Stats(), time.Now()
		delta, secs := st.Sub(lastStats), now.Sub(lastT).Seconds()
		lastStats, lastT = st, now
		result.Events = append(result.Events, ev)
		result.EventPhases = append(result.EventPhases, phase)
		result.Validation = append(result.Validation, ValidationSample{
			Config:          ev.From,
			ProcessedPerSec: float64(delta.LocksValidated) / secs,
			SkippedPerSec:   float64(delta.LocksSkipped) / secs,
		})
		if !ev.Idle && ev.Throughput > result.PhaseBest[phase] {
			result.PhaseBest[phase] = ev.Throughput
		}
		if ac.OnEvent != nil {
			ac.OnEvent(ev)
		}
		if ac.ShiftEvery > 0 && len(ac.Phases) > 1 && len(result.Events)%ac.ShiftEvery == 0 {
			phased.SetPhase((phase + 1) % phased.Phases())
		}
	}
	rt.Stop()
	result.Best, result.BestTp = rt.Best()
	result.Final = rt.Current()
	workers.Stop()

	// Static baselines: every configuration measured under every phase on
	// a fresh system, so each comparison is within one workload phase.
	// Each point is set up exactly like the live run — the structure is
	// built from Phases[0] and only the operation mix comes from the
	// measured phase (a phase's Range may be far below InitialSize, which
	// would make building *from* it impossible).
	bench := sc
	bench.Duration = ac.Period * time.Duration(samples)
	result.BestStatic = make([]StaticPoint, len(ac.Phases))
	for phase, ip := range ac.Phases {
		for _, p := range ac.Statics {
			stm := newCoreTM(bench, core.WriteBack, p)
			sset := harness.BuildIntset[*core.Tx](stm, base, ac.Seed)
			b := harness.Bench[*core.Tx]{
				Sys: stm, Threads: ac.Threads, Duration: bench.Duration,
				Warmup: bench.Warmup, Seed: ac.Seed,
				Op: harness.IntsetOp[*core.Tx](stm, sset, ip),
			}
			tp := repeatMax(bench, b.Run).Throughput
			sp := StaticPoint{Params: p, Phase: phase, Throughput: tp}
			result.Statics = append(result.Statics, sp)
			if tp > result.BestStatic[phase].Throughput {
				result.BestStatic[phase] = sp
			}
		}
	}
	return result
}

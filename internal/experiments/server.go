package experiments

import (
	"fmt"
	"time"

	"tinystm/internal/admission"
	"tinystm/internal/core"
	"tinystm/internal/harness"
	"tinystm/internal/kvstore"
	"tinystm/internal/mem"
	"tinystm/internal/obs"
	"tinystm/internal/tuning"
)

// ServerConfig parameterizes the ServerSweep experiment: open-loop,
// Zipf-skewed key-value service traffic — the load shape cmd/stmkvd sees —
// against an autotuned TM and against static baselines. Unlike the
// closed-loop AutotuneSweep, the offered load here is fixed by the arrival
// schedule, so a bad configuration surfaces as shed arrivals and queueing
// latency, not just lower throughput.
type ServerConfig struct {
	// Shards and Buckets shape the store.
	Shards, Buckets uint64
	// Keys is the preloaded keyspace.
	Keys uint64
	// Mixes are the traffic phases; the run starts in Mixes[0] and flips
	// to the next mix (cyclically) every Duration/len(Mixes), so every
	// phase gets equal time. One mix disables shifting.
	Mixes []kvstore.Mix
	// Rate is the open-loop arrival rate (requests/second); Workers the
	// service concurrency.
	Rate    float64
	Workers int
	// Duration is the length of each measured run.
	Duration time.Duration
	// Period and Samples drive the attached tuning runtime.
	Period  time.Duration
	Samples int
	// Start is the initial geometry for the autotuned run; Statics are
	// the fixed baselines.
	Start   core.Params
	Statics []core.Params
	Bounds  tuning.Bounds
	Seed    uint64
	// AdmissionWidth, when positive, puts an admission gate of that
	// initial width in front of every update transaction (reads are never
	// gated). Zero runs ungated.
	AdmissionWidth int
	// TuneAdmission attaches the gate to the autotuned run's tuning
	// runtime, which walks the width from the live abort ratio. Requires
	// AdmissionWidth > 0; static baselines keep the fixed width.
	TuneAdmission bool
}

// DefaultServerConfig is a calm-to-hot phase flip over a modest keyspace,
// starting the tuner at the deliberately bad (2^8, 0, 1).
func DefaultServerConfig(sc Scale) ServerConfig {
	calm := kvstore.Mix{Keys: 4096, Theta: 0.6, ReadPct: 85, CASPct: 5, BatchPct: 5}
	hot := kvstore.Mix{Keys: 4096, Theta: 0.99, ReadPct: 20, CASPct: 20, BatchPct: 10}
	return ServerConfig{
		Shards: 8, Buckets: 64, Keys: 4096,
		Mixes:    []kvstore.Mix{calm, hot},
		Rate:     20000,
		Workers:  sc.Threads[len(sc.Threads)-1],
		Duration: 10 * sc.Duration,
		Period:   sc.Duration,
		Samples:  1,
		Start:    core.Params{Locks: 1 << 8, Shifts: 0, Hier: 1},
		Statics: []core.Params{
			{Locks: 1 << 8, Shifts: 0, Hier: 1},
			{Locks: 1 << 16, Shifts: 0, Hier: 1},
			defaultGeometry,
		},
		Bounds: tuning.DefaultBounds(),
		Seed:   sc.Seed,
	}
}

// ServerPoint is one measured service run.
type ServerPoint struct {
	// Name is "autotuned" or "static"; Params the geometry (for the
	// autotuned run, the final one).
	Name   string
	Params core.Params
	Load   harness.OpenLoopResult
	// Commits/Aborts are the TM counter deltas over the run; Reconfigs
	// how many live reconfigurations happened during it.
	Commits, Aborts, Reconfigs uint64
	// AdmWidth is the gate's final width (0 when the run was ungated);
	// AdmMoves counts width changes the tuner applied during the run.
	AdmWidth, AdmMoves int
}

// ServerSweepResult is the outcome of one ServerSweep.
type ServerSweepResult struct {
	Autotuned ServerPoint
	Statics   []ServerPoint
	// Events is the autotuned run's tuning trace.
	Events []tuning.Event
}

// ToTable renders the autotuned-vs-static service comparison. The full
// arrival-to-completion latency distribution OpenLoop measures is
// surfaced — p50/p95/p99 — not just throughput: a configuration (or a
// tuner move) that buys commits with queueing delay shows up here first,
// which is the raw signal for the ROADMAP's latency-aware tuning.
func (r ServerSweepResult) ToTable() harness.Table {
	tbl := harness.Table{
		Title: "service load: autotuned vs. static configurations",
		Headers: []string{"configuration", "locks", "shifts", "h",
			"completed (10^3)", "req/s (10^3)", "p50", "p95", "p99", "dropped", "aborts", "reconfigs", "adm", "adm moves"},
	}
	row := func(p ServerPoint) {
		adm := "-"
		if p.AdmWidth > 0 {
			adm = fmt.Sprintf("%d", p.AdmWidth)
		}
		tbl.AddRow(p.Name, fmt.Sprintf("2^%d", log2(p.Params.Locks)), p.Params.Shifts, p.Params.Hier,
			fmt.Sprintf("%.1f", float64(p.Load.Completed)/1000),
			fmt.Sprintf("%.1f", p.Load.Throughput/1000),
			p.Load.P50.Round(10*time.Microsecond).String(),
			p.Load.P95.Round(10*time.Microsecond).String(),
			p.Load.P99.Round(10*time.Microsecond).String(),
			p.Load.Dropped, p.Aborts, p.Reconfigs, adm, p.AdmMoves)
	}
	for _, p := range r.Statics {
		row(p)
	}
	row(r.Autotuned)
	return tbl
}

// runServerPoint measures one configuration under the open-loop schedule.
// The phase flipper swaps the live mix at equal intervals.
func runServerPoint(sc Scale, cfg ServerConfig, geo core.Params, autotune bool) (ServerPoint, []tuning.Event) {
	tm := core.MustNew(core.Config{
		Space:  mem.NewSpace(sc.SpaceWords),
		Locks:  geo.Locks,
		Shifts: geo.Shifts,
		Hier:   geo.Hier,
		Clock:  sc.Clock,
	})
	m := kvstore.New[*core.Tx](tm, cfg.Shards, cfg.Buckets)
	kvstore.Preload[*core.Tx](tm, m, cfg.Keys, 1)

	// The gate fronts update transactions exactly as kvserver's handlers
	// do; kvstore.Admitter keeps the interface indirection in one place.
	var gate *admission.Gate
	var adm kvstore.Admitter
	if cfg.AdmissionWidth > 0 {
		gate = admission.New(cfg.AdmissionWidth)
		adm = gate
	}
	ops := make([]harness.OpFunc[*core.Tx], len(cfg.Mixes))
	for i, mix := range cfg.Mixes {
		ops[i] = kvstore.MixOpGated[*core.Tx](tm, m, mix, adm)
	}
	phased := harness.NewPhasedOp(ops...)
	var flipper *time.Ticker
	stopFlip := make(chan struct{})
	if len(cfg.Mixes) > 1 {
		flipper = time.NewTicker(cfg.Duration / time.Duration(len(cfg.Mixes)))
		go func() {
			for {
				select {
				case <-stopFlip:
					return
				case <-flipper.C:
					phased.SetPhase((phased.Phase() + 1) % phased.Phases())
				}
			}
		}()
	}

	// One histogram serves both readers: OpenLoop summarizes the run from
	// it, and the autotuned run's tuning events carry its per-period
	// p50/p99 deltas — the same numbers, not two measurements.
	lat := obs.NewHistogram()
	var rt *tuning.Runtime
	if autotune {
		var ctls []tuning.Controller
		if cfg.TuneAdmission && gate != nil {
			ctls = append(ctls, tuning.NewAdmission(gate, tuning.AdmissionConfig{}))
		}
		rt = tuning.NewRuntime(tm, tuning.RuntimeConfig{
			Tuner:       tuning.Config{Initial: geo, Bounds: cfg.Bounds, Seed: cfg.Seed},
			Period:      cfg.Period,
			Samples:     cfg.Samples,
			Controllers: ctls,
			Latency:     lat,
		})
		if err := rt.Start(); err != nil {
			panic(fmt.Sprintf("experiments: server sweep autotune start: %v", err))
		}
	}

	before := tm.Stats()
	load := harness.OpenLoop{
		Rate: cfg.Rate, Duration: cfg.Duration, Workers: cfg.Workers, Seed: cfg.Seed,
		Latency: lat,
		NewOp:   harness.TxOp[*core.Tx](tm, phased.Op()),
	}.Run()
	var events []tuning.Event
	if rt != nil {
		rt.Stop()
		events = rt.Trace()
	}
	if flipper != nil {
		flipper.Stop()
		close(stopFlip)
	}
	delta := tm.Stats().Sub(before)

	name := "static"
	params := geo
	if autotune {
		name = "autotuned"
		params = tm.Params()
	}
	pt := ServerPoint{
		Name: name, Params: params, Load: load,
		Commits: delta.Commits, Aborts: delta.Aborts, Reconfigs: delta.Reconfigs,
	}
	if gate != nil {
		pt.AdmWidth = gate.Width()
	}
	if rt != nil {
		pt.AdmMoves = rt.Moves(tuning.AdmissionName)
	}
	return pt, events
}

// ServerSweep measures the autotuned configuration and every static
// baseline under identical open-loop service traffic.
func ServerSweep(sc Scale, cfg ServerConfig) ServerSweepResult {
	if len(cfg.Mixes) == 0 {
		panic("experiments: ServerConfig needs at least one mix")
	}
	var r ServerSweepResult
	r.Autotuned, r.Events = runServerPoint(sc, cfg, cfg.Start, true)
	for _, p := range cfg.Statics {
		pt, _ := runServerPoint(sc, cfg, p, false)
		r.Statics = append(r.Statics, pt)
	}
	return r
}

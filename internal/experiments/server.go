package experiments

import (
	"fmt"
	"time"

	"tinystm/internal/core"
	"tinystm/internal/harness"
	"tinystm/internal/kvclient"
	"tinystm/internal/kvserver"
	"tinystm/internal/tuning"
)

// ServerConfig parameterizes the ServerSweep experiment: open-loop,
// Zipf-skewed key-value service traffic over the binary protocol against
// a live kvserver — what cmd/stmkvd would do under that traffic — once
// with the tuning runtime attached and once per static geometry. Unlike
// the closed-loop AutotuneSweep, the offered load here is fixed by the
// arrival schedule, so a bad configuration surfaces as shed arrivals and
// queueing latency, not just lower throughput.
type ServerConfig struct {
	// Shards and Buckets shape the store.
	Shards, Buckets uint64
	// Keys is the preloaded keyspace.
	Keys uint64
	// Mixes are the traffic phases; the run starts in Mixes[0] and flips
	// to the next mix (cyclically) every Duration/len(Mixes), so every
	// phase gets equal time. One mix disables shifting.
	Mixes []kvclient.Mix
	// Rate is the open-loop arrival rate (requests/second); Workers the
	// number of clients, each on its own connection — the fan-in.
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
}

// DefaultServerConfig is a calm-to-hot phase flip over 1024 keys, starting
// the tuner at the deliberately bad (2^8, 0, 1). The largest thread count
// is the number of connections: 32 or more is the contended regime.
func DefaultServerConfig(sc Scale) ServerConfig {
	calm := kvclient.Mix{Keys: 1024, Theta: 0.6, ReadPct: 85, CASPct: 5, BatchPct: 5}
	hot := kvclient.Mix{Keys: 1024, Theta: 0.99, ReadPct: 20, CASPct: 20, BatchPct: 10}
	return ServerConfig{
		Shards: 8, Buckets: 64, Keys: 1024,
		Mixes:    []kvclient.Mix{calm, hot},
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
	// Name is "autotuned" or "static".
	Name string
	// Load is what the clients saw, ServiceStats what the server did
	// (for the autotuned run, Params is the final geometry).
	Load harness.OpenLoopResult
	ServiceStats
}

// ServerSweepResult is the outcome of one ServerSweep; the autotuned run's
// tuning trace is Autotuned.Events.
type ServerSweepResult struct {
	Autotuned ServerPoint
	Statics   []ServerPoint
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
			"completed (10^3)", "goodput (10^3/s)", "p50", "p95", "p99", "dropped", "abort ratio", "reconfigs"},
	}
	row := func(p ServerPoint) {
		tbl.AddRow(p.Name, fmt.Sprintf("2^%d", log2(p.Params.Locks)), p.Params.Shifts, p.Params.Hier,
			fmt.Sprintf("%.1f", float64(p.Load.Completed)/1000),
			fmt.Sprintf("%.1f", p.Load.Goodput/1000),
			p.Load.P50.Round(10*time.Microsecond).String(),
			p.Load.P95.Round(10*time.Microsecond).String(),
			p.Load.P99.Round(10*time.Microsecond).String(),
			p.Load.Dropped, fmt.Sprintf("%.3f", p.AbortRatio), p.Reconfigs)
	}
	for _, p := range r.Statics {
		row(p)
	}
	row(r.Autotuned)
	return tbl
}

// runServerPoint boots one server at geo — with the tuning runtime when
// autotune is set — and measures it under the open-loop schedule. Every
// worker dials its own binary connection; the live mix flips at equal
// intervals.
func runServerPoint(sc Scale, cfg ServerConfig, mixes []*kvclient.Mix, geo core.Params, autotune bool) ServerPoint {
	svc := startService(kvserver.Config{
		SpaceWords: sc.SpaceWords,
		Shards:     cfg.Shards, Buckets: cfg.Buckets,
		Geometry:  geo,
		Snapshots: true,
		Autotune:  autotune,
		Period:    cfg.Period,
		Samples:   cfg.Samples,
		Bounds:    cfg.Bounds,
		Seed:      cfg.Seed,
	}, surfaceBinary, cfg.Keys)
	live, stopFlip := flipMixes(mixes, cfg.Duration/time.Duration(len(mixes)))
	load := harness.OpenLoop{
		Rate: cfg.Rate, Duration: cfg.Duration, Workers: cfg.Workers, Seed: cfg.Seed,
		NewOp: func(*harness.Worker) (func(*harness.Worker) error, func()) {
			t, hangUp := svc.dial()
			return func(w *harness.Worker) error { return live().Do(t, w.Rng) }, hangUp
		},
	}.Run()
	stopFlip()
	name := "static"
	if autotune {
		name = "autotuned"
	}
	return ServerPoint{Name: name, Load: load, ServiceStats: svc.finish()}
}

// ServerSweep measures the autotuned configuration and every static
// baseline under identical open-loop service traffic.
func ServerSweep(sc Scale, cfg ServerConfig) ServerSweepResult {
	if len(cfg.Mixes) == 0 {
		panic("experiments: ServerConfig needs at least one mix")
	}
	mixes := make([]*kvclient.Mix, len(cfg.Mixes))
	for i, x := range cfg.Mixes {
		mixes[i] = mustMix(x)
	}
	var r ServerSweepResult
	r.Autotuned = runServerPoint(sc, cfg, mixes, cfg.Start, true)
	for _, p := range cfg.Statics {
		r.Statics = append(r.Statics, runServerPoint(sc, cfg, mixes, p, false))
	}
	return r
}

package experiments

import (
	"fmt"
	"time"

	"tinystm/internal/harness"
	"tinystm/internal/kvclient"
	"tinystm/internal/kvserver"
	"tinystm/internal/tuning"
)

// ProtoConfig parameterizes ProtoSweep: live kvserver instances measured
// over their two wire surfaces (HTTP+JSON vs. the kvproto binary
// protocol) and, separately, under a hot-key write storm ungated and
// behind static admission gates of several widths. Every point is a
// closed loop of Workers clients, each on its own connection, hammering a
// freshly built server, so the comparison isolates the protocol and the
// gate, not the arrival schedule.
type ProtoConfig struct {
	// Keys is the preloaded keyspace; Theta its Zipfian skew for the
	// surface comparison.
	Keys  uint64
	Theta float64
	// ReadPcts are the surface-comparison mixes: each entry is a read
	// percentage (the rest are Puts) measured over both surfaces at equal
	// Workers.
	ReadPcts []int
	// Workers is the client concurrency per point.
	Workers int
	// Duration is the measured window per point.
	Duration time.Duration
	// Storm is the admission-comparison traffic: heavily skewed keys,
	// update-dominated (the default is 90% updates on a 0.99-skew
	// keyspace — the regime where optimistic STM livelocks).
	Storm kvclient.Mix
	// AdmissionWidths are the gated storm arms' widths, one arm each,
	// measured after the ungated arm.
	AdmissionWidths []int
	// Period is the storm servers' tuning period.
	Period time.Duration
	Seed   uint64
}

// DefaultProtoConfig scales the sweep to sc.
func DefaultProtoConfig(sc Scale) ProtoConfig {
	return ProtoConfig{
		Keys:            4096,
		Theta:           0.6,
		ReadPcts:        []int{95, 50, 10},
		Workers:         sc.Threads[len(sc.Threads)-1] * 4,
		Duration:        2 * sc.Duration,
		Storm:           kvclient.Mix{Keys: 4096, Theta: 0.99, ReadPct: 10, CASPct: 30, BatchPct: 30},
		AdmissionWidths: []int{4, 16, 64},
		Period:          sc.Duration / 4,
		Seed:            sc.Seed,
	}
}

// ProtoPoint is one measured client/server run.
type ProtoPoint struct {
	// Surface is "http" or "binary"; Gate "off", "on" or "" (surface
	// comparison points carry no gate; an "on" point's width is
	// ServiceStats.AdmWidth).
	Surface string
	Gate    string
	ReadPct int
	// Ops counts completed operations; Errors how many failed.
	Ops, Errors uint64
	// Goodput is operations completed without error per second — the
	// number the admission comparison ranks by.
	Goodput float64
	// ServiceStats is the server's side of the run.
	ServiceStats
}

// ProtoSweepResult is the outcome of one ProtoSweep.
type ProtoSweepResult struct {
	// Surface pairs HTTP and binary points per read mix.
	Surface []ProtoPoint
	// Storm is the hot-key write-storm comparison: binary surface,
	// ungated, then one arm per AdmissionWidths entry.
	Storm []ProtoPoint
}

// SurfaceTable renders the HTTP-vs-binary comparison.
func (r ProtoSweepResult) SurfaceTable() harness.Table {
	tbl := harness.Table{
		Title:   "wire surface: HTTP+JSON vs. binary kvproto (equal workers)",
		Headers: []string{"surface", "read%", "ops (10^3)", "goodput (10^3/s)", "errors", "aborts"},
	}
	for _, p := range r.Surface {
		tbl.AddRow(p.Surface, p.ReadPct,
			fmt.Sprintf("%.1f", float64(p.Ops)/1000),
			fmt.Sprintf("%.1f", p.Goodput/1000),
			p.Errors, p.Aborts)
	}
	return tbl
}

// StormTable renders the storm comparison: ungated vs. static gate widths.
func (r ProtoSweepResult) StormTable() harness.Table {
	tbl := harness.Table{
		Title:   "hot-key write storm: ungated vs. static admission widths (binary surface)",
		Headers: []string{"admission", "goodput (10^3/s)", "errors", "abort ratio", "adm width", "waited"},
	}
	for _, p := range r.Storm {
		adm := "-"
		if p.AdmWidth > 0 {
			adm = fmt.Sprintf("%d", p.AdmWidth)
		}
		tbl.AddRow(p.Gate,
			fmt.Sprintf("%.1f", p.Goodput/1000),
			p.Errors,
			fmt.Sprintf("%.3f", p.AbortRatio),
			adm, p.Waited)
	}
	return tbl
}

// runProtoPoint boots a server from scfg on surface and runs the closed
// loop of mix against it.
func runProtoPoint(sc Scale, cfg ProtoConfig, surface string, mix kvclient.Mix, scfg kvserver.Config) ProtoPoint {
	scfg.SpaceWords = sc.SpaceWords
	scfg.Snapshots = true
	scfg.Geometry = defaultGeometry
	svc := startService(scfg, surface, cfg.Keys)
	ops, errs, elapsed := svc.closedLoop(cfg.Workers, cfg.Duration, cfg.Seed, mustMix(mix))
	p := ProtoPoint{
		Surface: surface, ReadPct: mix.ReadPct,
		Ops: ops, Errors: errs,
		ServiceStats: svc.finish(),
	}
	if secs := elapsed.Seconds(); secs > 0 {
		p.Goodput = float64(ops-errs) / secs
	}
	return p
}

// ProtoSweep measures (1) the two wire surfaces at equal concurrency
// across read mixes, on a static server at a good fixed geometry — the
// sweep measures the wire and the gate, not the lock table — and (2) the
// hot-key write storm ungated and behind each static gate width.
func ProtoSweep(sc Scale, cfg ProtoConfig) ProtoSweepResult {
	var r ProtoSweepResult
	for _, readPct := range cfg.ReadPcts {
		mix := kvclient.Mix{Keys: cfg.Keys, Theta: cfg.Theta, ReadPct: readPct}
		for _, surface := range []string{surfaceHTTP, surfaceBinary} {
			r.Surface = append(r.Surface, runProtoPoint(sc, cfg, surface, mix, kvserver.Config{}))
		}
	}

	// Storm arms: identical traffic, binary surface, the tuning runtime
	// attached with its geometry bounds pinned, so the lock table holds
	// still and the loop runs as it does in stmkvd. The only difference
	// between the arms is the gate.
	storm := kvserver.Config{
		Autotune: true,
		Period:   cfg.Period,
		Samples:  1,
		Bounds: tuning.Bounds{
			MinLocks: defaultGeometry.Locks, MaxLocks: defaultGeometry.Locks,
			MinShifts: defaultGeometry.Shifts, MaxShifts: defaultGeometry.Shifts,
			MinHier: defaultGeometry.Hier, MaxHier: defaultGeometry.Hier,
		},
		Seed: cfg.Seed,
	}
	off := runProtoPoint(sc, cfg, surfaceBinary, cfg.Storm, storm)
	off.Gate = "off"
	r.Storm = []ProtoPoint{off}
	for _, w := range cfg.AdmissionWidths {
		storm.AdmissionWidth = w
		on := runProtoPoint(sc, cfg, surfaceBinary, cfg.Storm, storm)
		on.Gate = "on"
		r.Storm = append(r.Storm, on)
	}
	return r
}

package experiments

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"tinystm/internal/core"
	"tinystm/internal/harness"
	"tinystm/internal/kvclient"
	"tinystm/internal/kvserver"
	"tinystm/internal/rng"
	"tinystm/internal/tuning"
)

// ProtoConfig parameterizes ProtoSweep: live kvserver instances measured
// over their two wire surfaces (HTTP+JSON vs. the kvproto binary
// protocol) and, separately, under a hot-key write storm with the
// admission gate off vs. on. Every point is a closed loop of Workers
// clients hammering a freshly built server, so the comparison isolates
// the protocol and the gate, not the arrival schedule.
type ProtoConfig struct {
	// Keys is the preloaded keyspace; Theta its Zipfian skew for the
	// surface comparison.
	Keys  uint64
	Theta float64
	// ReadPcts are the surface-comparison mixes: each entry is a read
	// percentage measured over both surfaces at equal Workers.
	ReadPcts []int
	// Workers is the client concurrency per point.
	Workers int
	// Duration is the measured window per point.
	Duration time.Duration
	// StormTheta and StormReadPct shape the admission-comparison storm:
	// heavily skewed keys, write-dominated (the default is 90% writes on
	// a 0.99-skew keyspace — the regime where optimistic STM livelocks).
	StormTheta   float64
	StormReadPct int
	// AdmissionWidth is the gate's initial width for the admission-on
	// storm arm; the tuner walks it from there.
	AdmissionWidth int
	// Period is the admission tuner's control period.
	Period time.Duration
	Seed   uint64
}

// DefaultProtoConfig scales the sweep to sc.
func DefaultProtoConfig(sc Scale) ProtoConfig {
	return ProtoConfig{
		Keys:           4096,
		Theta:          0.6,
		ReadPcts:       []int{95, 50, 10},
		Workers:        sc.Threads[len(sc.Threads)-1] * 4,
		Duration:       2 * sc.Duration,
		StormTheta:     0.99,
		StormReadPct:   10,
		AdmissionWidth: 64,
		Period:         sc.Duration / 4,
		Seed:           sc.Seed,
	}
}

// ProtoPoint is one measured client/server run.
type ProtoPoint struct {
	// Surface is "http" or "binary"; Gate "off", "on" or "" (surface
	// comparison points carry no gate).
	Surface string
	Gate    string
	ReadPct int
	// Ops counts completed operations; Errors how many failed.
	Ops, Errors uint64
	Elapsed     time.Duration
	// OpsPerSec is completed operations per second; Goodput the same
	// minus errors — the number the admission comparison ranks by.
	OpsPerSec, Goodput float64
	// Commits/Aborts are server-side TM deltas; AbortRatio is
	// aborts/(commits+aborts).
	Commits, Aborts uint64
	AbortRatio      float64
	// AdmWidth is the gate's final width (0 when ungated); AdmMoves the
	// number of width adaptations the tuner applied.
	AdmWidth, AdmMoves int
}

// ProtoSweepResult is the outcome of one ProtoSweep.
type ProtoSweepResult struct {
	// Surface pairs HTTP and binary points per read mix.
	Surface []ProtoPoint
	// Storm is the hot-key write-storm comparison: binary surface,
	// admission off then on.
	Storm []ProtoPoint
}

// SurfaceTable renders the HTTP-vs-binary comparison.
func (r ProtoSweepResult) SurfaceTable() harness.Table {
	tbl := harness.Table{
		Title:   "wire surface: HTTP+JSON vs. binary kvproto (equal workers)",
		Headers: []string{"surface", "read%", "ops (10^3)", "op/s (10^3)", "errors", "aborts"},
	}
	for _, p := range r.Surface {
		tbl.AddRow(p.Surface, p.ReadPct,
			fmt.Sprintf("%.1f", float64(p.Ops)/1000),
			fmt.Sprintf("%.1f", p.OpsPerSec/1000),
			p.Errors, p.Aborts)
	}
	return tbl
}

// StormTable renders the admission-off vs. admission-on storm comparison.
func (r ProtoSweepResult) StormTable() harness.Table {
	tbl := harness.Table{
		Title:   "hot-key write storm: admission control off vs. on (binary surface)",
		Headers: []string{"admission", "goodput (10^3/s)", "errors", "abort ratio", "adm width", "adm moves"},
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
			adm, p.AdmMoves)
	}
	return tbl
}

// protoServerScaffold is one live server plus whichever wire surface the
// point measures.
type protoServerScaffold struct {
	srv   *kvserver.Server
	close func()
	// op runs one client operation: p<readPct reads, else increments.
	op func(r *rng.Rand, key uint64, read bool) error
}

// newProtoServer builds a server (good fixed geometry unless tuned — the
// sweep measures the wire and the gate, not the lock table) and exposes
// the requested surface.
func newProtoServer(sc Scale, cfg kvserver.Config, surface string, workers int) (*protoServerScaffold, error) {
	cfg.SpaceWords = sc.SpaceWords
	cfg.Snapshots = true
	if cfg.Geometry == (core.Params{}) {
		cfg.Geometry = defaultGeometry
	}
	srv, err := kvserver.New(cfg)
	if err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	sf := &protoServerScaffold{srv: srv}
	switch surface {
	case "http":
		hs := &http.Server{Handler: srv.Handler()}
		go hs.Serve(l)
		base := "http://" + l.Addr().String()
		client := &http.Client{Transport: &http.Transport{
			MaxIdleConns: 2 * workers, MaxIdleConnsPerHost: 2 * workers,
		}}
		sf.op = func(r *rng.Rand, key uint64, read bool) error {
			if read {
				return httpGet(client, base, key)
			}
			return httpAdd(client, base, key)
		}
		sf.close = func() {
			hs.Close()
			client.CloseIdleConnections()
			srv.Close()
		}
	case "binary":
		go srv.ServeProto(l)
		c := kvclient.New(l.Addr().String(), kvclient.Options{MaxInflight: 4 * workers})
		sf.op = func(r *rng.Rand, key uint64, read bool) error {
			if read {
				_, _, err := c.Get(key)
				return err
			}
			_, err := c.Add(key, 1)
			return err
		}
		sf.close = func() {
			c.Close()
			l.Close()
			srv.Close()
		}
	default:
		l.Close()
		srv.Close()
		return nil, fmt.Errorf("experiments: unknown surface %q", surface)
	}
	return sf, nil
}

func httpGet(c *http.Client, base string, key uint64) error {
	resp, err := c.Get(fmt.Sprintf("%s/kv/%d", base, key))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var sink [512]byte
	for {
		if _, err := resp.Body.Read(sink[:]); err != nil {
			break
		}
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotFound {
		return fmt.Errorf("GET status %d", resp.StatusCode)
	}
	return nil
}

func httpAdd(c *http.Client, base string, key uint64) error {
	resp, err := c.Post(fmt.Sprintf("%s/kv/%d/add", base, key),
		"application/json", bytes.NewReader([]byte(`{"delta":1}`)))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var sink [512]byte
	for {
		if _, err := resp.Body.Read(sink[:]); err != nil {
			break
		}
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("ADD status %d", resp.StatusCode)
	}
	return nil
}

// runProtoPoint preloads the keyspace over the wire, then runs the
// closed loop and collects server-side deltas.
func runProtoPoint(sc Scale, cfg ProtoConfig, surface string, readPct int, theta float64, scfg kvserver.Config) (ProtoPoint, error) {
	sf, err := newProtoServer(sc, scfg, surface, cfg.Workers)
	if err != nil {
		return ProtoPoint{}, err
	}
	defer sf.close()

	// Preload through the surface under test so cache and connection
	// state are warm before the window opens.
	pre := rng.New(cfg.Seed)
	for k := uint64(0); k < cfg.Keys; k++ {
		if err := sf.op(pre, k, false); err != nil {
			return ProtoPoint{}, fmt.Errorf("experiments: proto preload key %d over %s: %w", k, surface, err)
		}
	}

	zipf := rng.NewZipf(cfg.Keys, theta)
	before := sf.srv.TM().Stats()
	start := time.Now()
	deadline := start.Add(cfg.Duration)
	var wg sync.WaitGroup
	results := make([]struct{ ops, errs uint64 }, cfg.Workers)
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rng.NewThread(cfg.Seed, w)
			for time.Now().Before(deadline) {
				key := zipf.Next(r)
				if err := sf.op(r, key, r.Intn(100) < readPct); err != nil {
					results[w].errs++
				}
				results[w].ops++
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	delta := sf.srv.TM().Stats().Sub(before)

	p := ProtoPoint{
		Surface: surface, ReadPct: readPct, Elapsed: elapsed,
		Commits: delta.Commits, Aborts: delta.Aborts,
	}
	for _, r := range results {
		p.Ops += r.ops
		p.Errors += r.errs
	}
	if secs := elapsed.Seconds(); secs > 0 {
		p.OpsPerSec = float64(p.Ops) / secs
		p.Goodput = float64(p.Ops-p.Errors) / secs
	}
	if total := delta.Commits + delta.Aborts; total > 0 {
		p.AbortRatio = float64(delta.Aborts) / float64(total)
	}
	if rt := sf.srv.Runtime(); rt != nil {
		p.AdmWidth = rt.Knob(tuning.AdmissionName).N
		p.AdmMoves = rt.Moves(tuning.AdmissionName)
	}
	return p, nil
}

// ProtoSweep measures (1) the two wire surfaces at equal concurrency
// across read mixes and (2) the hot-key write storm with the admission
// gate off vs. on (tuned). Panics on scaffold failures, like the other
// sweeps: a point that cannot even start is a harness bug, not a result.
func ProtoSweep(sc Scale, cfg ProtoConfig) ProtoSweepResult {
	var r ProtoSweepResult
	for _, readPct := range cfg.ReadPcts {
		for _, surface := range []string{"http", "binary"} {
			pt, err := runProtoPoint(sc, cfg, surface, readPct, cfg.Theta, kvserver.Config{})
			if err != nil {
				panic(err)
			}
			r.Surface = append(r.Surface, pt)
		}
	}

	// Storm arms: identical workload, binary surface; the only difference
	// is the gate. The admission-on arm pins the geometry bounds so the
	// runtime's only live dimension is the gate width.
	off, err := runProtoPoint(sc, cfg, "binary", cfg.StormReadPct, cfg.StormTheta, kvserver.Config{})
	if err != nil {
		panic(err)
	}
	off.Gate = "off"
	r.Storm = append(r.Storm, off)

	pinned := tuning.Bounds{
		MinLocks: defaultGeometry.Locks, MaxLocks: defaultGeometry.Locks,
		MinShifts: defaultGeometry.Shifts, MaxShifts: defaultGeometry.Shifts,
		MinHier: defaultGeometry.Hier, MaxHier: defaultGeometry.Hier,
	}
	onCfg := kvserver.Config{
		Autotune:       true,
		AdmissionWidth: cfg.AdmissionWidth,
		TuneAdmission:  true,
		Period:         cfg.Period,
		Samples:        1,
		Bounds:         pinned,
		Geometry:       defaultGeometry,
		Seed:           cfg.Seed,
	}
	on, err := runProtoPoint(sc, cfg, "binary", cfg.StormReadPct, cfg.StormTheta, onCfg)
	if err != nil {
		panic(err)
	}
	on.Gate = "on"
	r.Storm = append(r.Storm, on)
	return r
}

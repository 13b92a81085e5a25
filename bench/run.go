//go:build linux

package main

import (
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"tinystm/internal/kvclient"
	"tinystm/internal/kvproto"
	"tinystm/internal/resilience"
)

// Run shape. An end-to-end run (trace 0) of S measured seconds is warm
// (3/24 S closed loop against stmkvd, then one second of duet, both
// discarded: caches, shard growth, tuner convergence, the yardstick's own
// start) and then duet for the rest. A traced run (trace 1) is warm 5/24 S,
// open 15/24 S (open loop at the workload's fixed rate, which the scraped
// per-layer deltas bracket) and sat 4/24 S (closed loop, every slot full).
const (
	// defaultSeconds is BENCHMARK.json's run_seconds.
	defaultSeconds = 24
	duetWarmShare  = 3.0 / 24
	duetDiscard    = time.Second
	warmShare      = 5.0 / 24
	openShare      = 15.0 / 24
	// Validity limits on the instrument itself, in traced runs.
	maxSchedLagP99Ms = 2.0
	maxClientCPU     = 0.90 // of one core, during open
)

// result is everything one run of one workload produced.
type result struct {
	Workload  string  `json:"workload"`
	Seed      uint64  `json:"seed"`
	Seconds   int     `json:"seconds"`
	Trace     bool    `json:"trace"`
	Correct   bool    `json:"correct"`
	Attempted uint64  `json:"attempted"`
	Failed    uint64  `json:"failed"`
	EndToEnd  metrics `json:"end_to_end,omitempty"`
	PerLayer  metrics `json:"per_layer,omitempty"`
	// Raw holds the wall-clock numbers behind the end-to-end ratios, for a
	// reader who wants milliseconds: they move with the host, carry no
	// bound and are not in the driver's line.
	Raw metrics `json:"raw,omitempty"`
	// Absent lists per-layer metrics this workload bypasses: its line in
	// the driver's JSON carries a zero, but it was not measured.
	Absent []string `json:"absent,omitempty"`
	// Samples is how many observations stand behind each timing metric;
	// for a p99 it is the smallest count beyond any window's p99.
	Samples map[string]int `json:"samples,omitempty"`
	// Counts are the traced run's clock-free numbers; they must repeat
	// exactly for one seed.
	Counts map[string]float64 `json:"counts,omitempty"`
	// Violations are failed correctness checks: the run exits != 0.
	// Invalid are tripped validity guards on the instrument: the numbers
	// of this run should not be trusted, and compare says so, but the
	// program under test did nothing wrong.
	Violations []string `json:"violations,omitempty"`
	Invalid    []string `json:"invalid,omitempty"`
	// LedgerViolations counts broken ledger checks, mid-run and final.
	// KnownDefects holds the ones excused by the workload's knownDefect.
	LedgerViolations int      `json:"ledger_violations"`
	KnownDefects     []string `json:"known_defects,omitempty"`
	knownDefect      string
}

func (r *result) violate(format string, a ...any) {
	r.Violations = append(r.Violations, fmt.Sprintf(format, a...))
}

// ledger records a broken ledger invariant: fatal, unless the workload
// declares a known defect of the program that explains it.
func (r *result) ledger(format string, a ...any) {
	msg := fmt.Sprintf(format, a...)
	if r.knownDefect == "" {
		r.Violations = append(r.Violations, msg)
		return
	}
	r.KnownDefects = append(r.KnownDefects, msg+" [known defect: "+r.knownDefect+"]")
}

func (r *result) invalid(format string, a ...any) {
	r.Invalid = append(r.Invalid, fmt.Sprintf(format, a...))
}

// server is a booted, preloaded, ready child plus what it needs torn down.
type server struct {
	*child
	walDir string
	flags  []string
}

// control is the HTTP client for /readyz, /stats, /tuning and /metrics.
var control = &http.Client{Timeout: 10 * time.Second}

// setup boots a child for sp and preloads it; the returned duration is
// boot + WAL recovery + preload until /readyz answers 200.
func setup(sp *spec, bin string) (*server, time.Duration, error) {
	s := &server{flags: sp.flags}
	if sp.wal {
		dir, err := os.MkdirTemp(filepath.Join(outDir, "tmp"), sp.name+"-wal-")
		if err != nil {
			return nil, 0, err
		}
		s.walDir = dir
		s.flags = append(append([]string(nil), s.flags...), "-wal-dir", dir)
	}
	t0 := time.Now()
	c, err := startChild(bin, s.flags, serverLog(sp))
	if err != nil {
		return nil, 0, err
	}
	s.child = c
	if err := c.waitReady(control, 30*time.Second); err != nil {
		s.discard()
		return nil, 0, err
	}
	if err := preload(sp, c); err != nil {
		s.discard()
		return nil, 0, fmt.Errorf("preload: %w", err)
	}
	if err := c.waitReady(control, 30*time.Second); err != nil {
		s.discard()
		return nil, 0, err
	}
	return s, time.Since(t0), nil
}

func serverLog(sp *spec) string { return filepath.Join(outDir, sp.name+".server.log") }

// setupYardstick boots a yardstick and takes it through the same steps as
// setup takes stmkvd: process start, ready, the workload's preload over
// the workload's surface, ready. The yardstick keeps nothing, so the
// duration is what those steps cost the host, the generator and the wire.
func setupYardstick(sp *spec) (*child, time.Duration, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	y, err := startServer(self, []string{"yardstick"}, filepath.Join(outDir, sp.name+".yardstick.log"))
	if err != nil {
		return nil, 0, fmt.Errorf("yardstick: %w", err)
	}
	err = y.waitReady(control, 30*time.Second)
	if err == nil {
		err = preload(sp, y)
	}
	if err == nil {
		err = y.waitReady(control, 30*time.Second)
	}
	if err != nil {
		y.kill()
		return nil, 0, fmt.Errorf("yardstick: %w", err)
	}
	return y, time.Since(t0), nil
}

// discard stops the child and removes its WAL directory.
func (s *server) discard() error {
	err := s.stop()
	if s.walDir != "" {
		os.RemoveAll(s.walDir)
	}
	return err
}

// newTarget opens one connection of sp's surface to c.
func newTarget(sp *spec, c *child) target {
	if sp.http {
		return newHTTPTarget(c.httpAddr)
	}
	return binTarget{kvclient.New(c.protoAddr, kvclient.Options{
		MaxInflight: binaryInflight,
		Retry:       &resilience.RetryConfig{},
		Breaker:     &resilience.BreakerConfig{},
	})}
}

// preloadBatches is the state every server starts from, as atomic batches
// of at most 1024 puts: every workload key, then the ledger.
func preloadBatches(sp *spec) [][]kvproto.BatchOp {
	const batchSize = 1024
	var batches [][]kvproto.BatchOp
	for lo := uint64(0); lo < sp.keys; lo += batchSize {
		ops := make([]kvproto.BatchOp, 0, batchSize)
		for k := lo; k < lo+batchSize && k < sp.keys; k++ {
			ops = append(ops, kvproto.BatchOp{Op: kvproto.OpPut, Key: k, Val: preloadVal(k)})
		}
		batches = append(batches, ops)
	}
	ledger := make([]kvproto.BatchOp, ledgerKeys)
	for j := range ledger {
		ledger[j] = kvproto.BatchOp{Op: kvproto.OpPut, Key: ledgerBase + uint64(j), Val: ledgerInit(j)}
	}
	return append(batches, ledger)
}

// preload writes preloadBatches over the workload's own surface.
func preload(sp *spec, c *child) error {
	batches := preloadBatches(sp)

	// Two connections, like the measured phases, each working through its
	// share of the batches.
	errs := make([]error, genConns)
	var wg sync.WaitGroup
	for i := 0; i < genConns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			t := newTarget(sp, c)
			defer t.close()
			for b := i; b < len(batches); b += genConns {
				if _, err := t.batch(batches[b]); err != nil {
					errs[i] = err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// scrape is one observation of the child from outside.
type scrape struct {
	stats, tuning map[string]any
	prom          promSamples
	scrapeTook    time.Duration
	proc          procSample
	selfCPU       float64
}

func observe(c *child) (scrape, error) {
	var s scrape
	var err error
	if s.stats, err = c.getJSON(control, "/stats"); err != nil {
		return s, err
	}
	if s.tuning, err = c.getJSON(control, "/tuning"); err != nil {
		return s, err
	}
	if s.prom, s.scrapeTook, err = c.getMetrics(control); err != nil {
		return s, err
	}
	if s.proc, err = readProc(c.pid()); err != nil {
		return s, err
	}
	s.selfCPU = selfCPU()
	return s, nil
}

// live is what the phases against the child produced, before any of it is
// turned into metrics.
type live struct {
	setups []float64 // seconds, one per set-up
	rss    []float64 // VmHWM in MB when each set-up ended
	// refSetups is the yardstick's set-up time right after each of
	// stmkvd's (end-to-end runs only).
	refSetups []float64
	// End-to-end run: the duet's two sides and the on-CPU seconds each
	// server spent over it.
	sut, ref       duetSide
	sutCPU, refCPU float64
	// Traced run: before and after bracket the open phase.
	before, after    scrape
	openD            time.Duration
	open             openResult
	satOK, satFailed uint64
	satWindows       []uint64
	// final is the end of the run.
	final                scrape
	retries, breakerOpen uint64
	replayS              float64 // write-wal: restart on the same log until ready
}

// runLive is the part of a run that talks to a real stmkvd: set up (several
// times), the measured phases, final checks, and for a durable workload a
// crash and restart on the same log.
func runLive(sp *spec, g *gen, seconds int, trace bool, bin string, res *result) (*live, error) {
	total := time.Duration(seconds) * time.Second
	lv := &live{}

	var srv *server
	defer func() {
		if srv != nil {
			srv.discard()
		}
	}()
	for i := 0; i < sp.setups; i++ {
		if srv != nil {
			if err := srv.discard(); err != nil {
				res.violate("set-up %d: %v", i, err)
			}
		}
		s, took, err := setup(sp, bin)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		srv = s
		p, err := readProc(srv.pid())
		if err != nil {
			return nil, err
		}
		lv.setups = append(lv.setups, took.Seconds())
		lv.rss = append(lv.rss, p.hwmMB)
		if !trace {
			y, took, err := setupYardstick(sp)
			if err != nil {
				return nil, err
			}
			if err := y.stop(); err != nil {
				res.violate("%v", err)
			}
			lv.refSetups = append(lv.refSetups, took.Seconds())
		}
	}

	f := newFleet(g, srv.child)
	var err error
	if trace {
		err = lv.tracedPhases(sp, f, srv.child, total)
	} else {
		err = lv.duetPhases(sp, g, f, srv.child, total, res)
	}
	if err != nil {
		return nil, err
	}
	f.witnessAll()

	if lv.final, err = observe(srv.child); err != nil {
		return nil, fmt.Errorf("final scrape: %w", err)
	}
	checkState(res, sp, f, srv.child)
	lv.retries, lv.breakerOpen = f.resilience()
	if bad, _ := jsonNum(lv.final.stats, "proto.bad_frames"); bad != 0 {
		res.violate("server counted %v bad frames", bad)
	}
	clientErrs := f.errs.Load() + lv.retries
	if srvErrs, _ := jsonNum(lv.final.stats, "proto.err_ops"); !sp.http && uint64(srvErrs) != clientErrs {
		res.violate("server err_ops %v != client-observed errors %d", srvErrs, clientErrs)
	}
	f.close()
	if f.firstErr != nil {
		res.violate("%d requests failed; first: %v", f.errs.Load(), f.firstErr)
	}
	if n := f.ledgerBad.Load(); n > 0 {
		res.LedgerViolations += int(n)
		res.ledger("%d mid-run batchgets broke the ledger invariant", n)
	}

	// Durable workload: crash the server, restart it on the same log and
	// check that everything acked is still there.
	if sp.wal {
		srv.kill()
		t0 := time.Now()
		c, err := startChild(bin, srv.flags, serverLog(sp))
		if err != nil {
			return nil, fmt.Errorf("restart on the same WAL: %w", err)
		}
		srv.child = c
		if err := c.waitReady(control, 60*time.Second); err != nil {
			return nil, fmt.Errorf("restart on the same WAL: %w", err)
		}
		lv.replayS = time.Since(t0).Seconds()
		checkState(res, sp, f, c)
	}
	err = srv.discard()
	srv = nil
	if err != nil {
		res.violate("%v", err)
	}
	return lv, nil
}

// duetPhases is the measured part of an end-to-end run: warm stmkvd, boot
// the yardstick beside it and drive the two in alternating slices.
func (lv *live) duetPhases(sp *spec, g *gen, f *fleet, c *child, total time.Duration, res *result) error {
	y, _, err := setupYardstick(sp)
	if err != nil {
		return err
	}
	defer func() {
		if err := y.stop(); err != nil {
			res.violate("yardstick: %v", err)
		}
	}()
	yf := newFleet(g, y)
	defer yf.close()

	warmD := time.Duration(float64(total) * duetWarmShare).Round(time.Second)
	f.closedLoop(warmD)
	f.witnessAll()
	sut, ref := f.newStepper(), yf.newStepper()
	defer sut.stop()
	defer ref.stop()
	duet(sut, ref, duetDiscard)

	s0, err := readProc(c.pid())
	if err != nil {
		return err
	}
	r0, err := readProc(y.pid())
	if err != nil {
		return err
	}
	lv.sut, lv.ref = duet(sut, ref, total-warmD-duetDiscard)
	s1, err := readProc(c.pid())
	if err != nil {
		return err
	}
	r1, err := readProc(y.pid())
	if err != nil {
		return err
	}
	lv.sutCPU, lv.refCPU = s1.cpu-s0.cpu, r1.cpu-r0.cpu
	// A yardstick that fails a request is a broken instrument.
	if yf.firstErr != nil {
		res.violate("the yardstick failed %d requests; first: %v", yf.errs.Load(), yf.firstErr)
	}
	if n := yf.ledgerBad.Load(); n > 0 {
		res.violate("the yardstick answered %d batchgets with a broken ledger", n)
	}
	return nil
}

// tracedPhases is the measured part of a traced run: warm, open (bracketed
// by scrapes of the child), sat.
func (lv *live) tracedPhases(sp *spec, f *fleet, c *child, total time.Duration) error {
	warmD := time.Duration(float64(total) * warmShare).Round(time.Second)
	lv.openD = time.Duration(float64(total) * openShare).Round(time.Second)
	satD := total - warmD - lv.openD

	f.closedLoop(warmD)
	f.witnessAll()
	var err error
	if lv.before, err = observe(c); err != nil {
		return fmt.Errorf("scrape before open: %w", err)
	}
	lv.open = f.openLoop(lv.openD, sp.rate)
	if lv.after, err = observe(c); err != nil {
		return fmt.Errorf("scrape after open: %w", err)
	}
	f.witnessAll()
	lv.satOK, lv.satFailed, lv.satWindows = f.closedLoop(satD)
	return nil
}

// runWorkload is one complete run of one workload. Without trace it is the
// duet and reports the end-to-end metrics; with trace it is warm/open/sat
// plus the in-process ladder and traced replay, and reports the per-layer
// metrics.
func runWorkload(sp *spec, seed uint64, seconds int, trace bool, bin string, buildS float64) (*result, error) {
	res := &result{Workload: sp.name, Seed: seed, Seconds: seconds, Trace: trace,
		Samples: map[string]int{}, knownDefect: sp.knownDefect}
	if err := os.MkdirAll(filepath.Join(outDir, "tmp"), 0o755); err != nil {
		return nil, err
	}
	// One log per workload per command: every child of this run appends.
	if err := os.Remove(serverLog(sp)); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	g := newGen(sp, seed)
	lv, err := runLive(sp, g, seconds, trace, bin, res)
	if err != nil {
		return nil, err
	}
	if trace {
		err = tracedMetrics(sp, g, lv, res, buildS)
	} else {
		duetMetrics(sp, lv, res)
	}
	if err != nil {
		return nil, err
	}
	res.Correct = len(res.Violations) == 0
	return res, nil
}

// duetMetrics turns an end-to-end run into its four metrics. The two
// timings are ratios to the yardstick, measured in the same breath; the
// wall-clock values behind them go to Raw.
func duetMetrics(sp *spec, lv *live, res *result) {
	res.Attempted = lv.sut.ok + lv.sut.failed
	res.Failed = lv.sut.failed + lv.retries
	// Set-up time in the yardstick's terms: each of stmkvd's set-ups over
	// the yardstick's that followed it, the median of those, and that many
	// times what the yardstick's set-up took on the baseline host.
	rel := make([]float64, len(lv.setups))
	for i := range rel {
		rel[i] = lv.setups[i] / lv.refSetups[i]
	}
	setupRel, _ := median(rel)
	setupRaw, _ := median(lv.setups)
	refSetup, _ := median(lv.refSetups)
	rss, _ := median(lv.rss)
	ratio, pairs := pairedRatio(lv.sut, lv.ref)
	perOp := func(cpu float64, d duetSide) float64 { return cpu / math.Max(1, float64(d.ok)) * 1e6 }
	sutCPU, refCPU := perOp(lv.sutCPU, lv.sut), perOp(lv.refCPU, lv.ref)
	res.EndToEnd = metrics{
		"setup_s":        {setupRel * sp.yardstickSetupS, "s"},
		"round_p50_rel":  {ratio, "ratio"},
		"cpu_per_op_rel": {sutCPU / math.Max(1e-9, refCPU), "ratio"},
		"server_rss_mb":  {rss, "MB"},
	}
	res.Samples["setup_s"] = len(lv.setups)
	res.Samples["server_rss_mb"] = len(lv.rss)
	res.Samples["round_p50_rel"] = pairs
	res.Samples["cpu_per_op_rel"] = int(lv.sut.ok)

	sutMs, _ := median(lv.sut.roundMs)
	refMs, _ := median(lv.ref.roundMs)
	var busyMs float64
	for _, ms := range lv.sut.roundMs {
		busyMs += ms
	}
	res.Raw = metrics{
		"setup_wall_s":            {setupRaw, "s"},
		"yardstick_setup_wall_s":  {refSetup, "s"},
		"round_p50_ms":            {sutMs, "ms"},
		"yardstick_round_p50_ms":  {refMs, "ms"},
		"cpu_us_per_op":           {sutCPU, "us"},
		"yardstick_cpu_us_per_op": {refCPU, "us"},
		"round_goodput_ops_s":     {float64(lv.sut.ok) / math.Max(1e-9, busyMs/1000), "1/s"},
	}
	res.Samples["round_p50_ms"] = len(lv.sut.roundMs)
	res.Samples["yardstick_round_p50_ms"] = len(lv.ref.roundMs)
}

// tracedMetrics turns a traced run into the per-layer metrics: the scraped
// and generator-side numbers of the live phases, then the in-process
// ladder and traced replay for the rest.
func tracedMetrics(sp *spec, g *gen, lv *live, res *result, buildS float64) error {
	// The open phase's samples, whole and split by class of op.
	var okOpen, failedOpen uint64
	var all, reads, updates latSet
	for _, s := range lv.open.samples {
		if s.ok {
			okOpen++
		} else {
			failedOpen++
		}
		all.add(s)
		if s.kind.isRead() {
			reads.add(s)
		} else {
			updates.add(s)
		}
	}
	failedOpen += lv.retries
	res.Attempted = uint64(len(lv.open.samples)) + lv.satOK + lv.satFailed
	res.Failed = failedOpen + lv.satFailed
	openSec := lv.openD.Seconds()
	nwin := int(lv.openD / sp.window)
	windowed := func(set *latSet, q float64) (float64, int) {
		v, beyond, _ := windowedQuantile(set.due, set.lat, openSec, nwin, q)
		return v, beyond
	}

	// Validity of the instrument.
	lagP99, _, _ := windowedQuantile(all.due, lv.open.lagMs, openSec, nwin, 0.99)
	clientCPU := lv.after.selfCPU - lv.before.selfCPU
	if lagP99 > maxSchedLagP99Ms {
		res.invalid("bench.sched_lag_p99_ms %.3f > %.1f: the generator could not keep its schedule", lagP99, maxSchedLagP99Ms)
	}
	if share := clientCPU / lv.open.elapsed.Seconds(); share > maxClientCPU {
		res.invalid("generator used %.0f%% of a core during open (limit %.0f%%)", 100*share, 100*maxClientCPU)
	}

	p := scrapedLayers(sp, res, lv.before, lv.after, lv.final)
	p50, p50Beyond := windowed(&all, 0.5)
	p["open_p50_ms"] = metric{p50, "ms"}
	res.Samples["open_p50_ms"] = p50Beyond
	srvCPU := lv.after.proc.cpu - lv.before.proc.cpu
	p["open_cpu_us_per_op"] = metric{srvCPU / math.Max(1, float64(okOpen)) * 1e6, "us"}
	res.Samples["open_cpu_us_per_op"] = int(okOpen)
	p["kvserver.outside_p50_us"] = metric{p50*1000 - p["kvserver.req_p50_us"].Value, "us"}
	p["wal.replay_s"] = metric{lv.replayS, "s"}
	if !sp.wal {
		res.Absent = append(res.Absent, "wal.replay_s")
	}
	p["kvclient.retries"] = metric{float64(lv.retries), "count"}
	p["kvclient.breaker_opens"] = metric{float64(lv.breakerOpen), "count"}
	if sp.http {
		res.Absent = append(res.Absent, "kvclient.retries", "kvclient.breaker_opens")
	}
	for name, set := range map[string]*latSet{"open_p99_ms": &all, "open_read_p99_ms": &reads, "open_update_p99_ms": &updates} {
		v, beyond := windowed(set, 0.99)
		p[name] = metric{v, "ms"}
		res.Samples[name] = beyond
	}
	raw := append([]float64(nil), all.lat...)
	sort.Float64s(raw)
	rawP99, _ := percentile(raw, 0.99)
	p["open_p99_raw_ms"] = metric{rawP99, "ms"}
	res.Samples["open_p99_raw_ms"] = len(raw) - int(math.Ceil(0.99*float64(len(raw))))
	rates := make([]float64, len(lv.satWindows))
	for i, c := range lv.satWindows {
		rates[i] = float64(c) / satWindow.Seconds()
	}
	goodput, _ := median(rates)
	p["sat_goodput_ops_s"] = metric{goodput, "1/s"}
	res.Samples["sat_goodput_ops_s"] = len(rates)
	p["open_fail_ratio"] = metric{float64(failedOpen) / float64(len(lv.open.samples)), "ratio"}
	p["bench.sched_lag_p99_ms"] = metric{lagP99, "ms"}
	p["bench.backlog_max"] = metric{float64(lv.open.backlogMax), "count"}
	p["bench.client_cpu_us_per_op"] = metric{clientCPU / math.Max(1, float64(okOpen)) * 1e6, "us"}
	p["bench.build_s"] = metric{buildS, "s"}
	res.PerLayer = p
	verifySplit(sp, res)
	if err := tracedRun(sp, g, res); err != nil {
		return fmt.Errorf("traced run: %w", err)
	}
	p["core.ledger_violations"] = metric{float64(res.LedgerViolations), "count"}
	// The driver's line carries every declared per-layer metric; one this
	// workload has no way to produce is a zero there and is named in
	// Absent.
	for _, d := range perLayer {
		if _, ok := p[d.name]; !ok {
			p[d.name] = metric{0, d.unit}
			res.Absent = append(res.Absent, d.name)
		}
	}
	return nil
}

// verifySplit checks from the scraped counters that the workload stressed
// the layers it claims to stress and bypassed the ones it claims to bypass:
// the split the predictions rest on is verified, not assumed.
func verifySplit(sp *spec, res *result) {
	p := res.PerLayer
	v := func(name string) float64 { return p[name].Value }
	want := func(ok bool, format string, a ...any) {
		if !ok {
			res.violate("stress/bypass split: "+format, a...)
		}
	}
	if sp.tuned {
		want(v("tuning.reconfigs") >= 1, "the tuner never reconfigured")
		want(v("core.abort_ratio") > 0, "no transaction ever aborted on the contended workload")
	} else {
		want(v("tuning.reconfigs") == 0 && v("cm.switches") == 0, "tuner or CM moved with autotune off")
	}
	if sp.theta == 0 {
		want(v("core.abort_ratio") < 0.01, "abort ratio %.4f on the uncontended workload", v("core.abort_ratio"))
	}
	if sp.wal {
		want(v("wal.appends") > 0 && v("wal.checkpoints") >= 3, "%v WAL appends, %v checkpoints during open", v("wal.appends"), v("wal.checkpoints"))
	} else {
		want(v("wal.appends") == 0, "%v WAL appends without durability", v("wal.appends"))
	}
	if sp.gate > 0 {
		want(v("admission.admitted") > 0, "the admission gate admitted nothing")
	} else {
		want(v("admission.admitted") == 0, "%v admissions without a gate", v("admission.admitted"))
	}
}

// latSet is the open-phase latency sample of one class of op.
type latSet struct{ due, lat []float64 }

func (l *latSet) add(s sample) {
	l.due = append(l.due, s.due)
	l.lat = append(l.lat, s.lat)
}

// resilience sums the binary clients' retry and breaker counters.
func (f *fleet) resilience() (retries, breakerOpens uint64) {
	for _, t := range f.targets {
		if bt, ok := t.(binTarget); ok {
			st := bt.c.ResilienceStats()
			retries += st.Retries
			breakerOpens += st.Breaker.Opens
		}
	}
	return retries, breakerOpens
}

// checkState verifies the ledger invariant and every worker's witness key
// against the server behind c, through a fresh connection.
func checkState(res *result, sp *spec, f *fleet, c *child) {
	t := newTarget(sp, c)
	defer t.close()
	ledger, err := t.batch(ledgerGets)
	if err == nil {
		err = checkLedger(ledger)
	}
	if err != nil {
		var sum uint64
		for j := 0; j < ledgerKeys; j++ {
			v, _, _ := t.get(ledgerBase + uint64(j))
			sum += v
		}
		again, _ := t.batch(ledgerGets)
		res.LedgerViolations++
		res.ledger("final ledger check: %v (single gets sum to %d; a second batchget: %v)", err, sum, checkLedger(again))
	}
	for _, w := range f.workers {
		v, found, err := t.get(w.witnessKey)
		if err != nil || !found || v != w.witnessVal {
			res.violate("witness key %d: got %d (found=%v, err=%v), last acked %d", w.witnessKey, v, found, err, w.witnessVal)
			return
		}
	}
}

// cmCodes numbers the contention-management policies for cm.policy_final.
var cmCodes = map[string]float64{"suicide": 0, "backoff": 1, "karma": 2, "timestamp": 3, "serializer": 4}

// scrapedLayers turns the before/after observations of the open phase into
// the S and P per-layer metrics.
func scrapedLayers(sp *spec, res *result, before, after, final scrape) metrics {
	p := metrics{}
	d := after.prom.sub(before.prom)
	count := func(name string, v float64) { p[name] = metric{v, "count"} }
	us := func(name string, bs []bucket, q float64) {
		v, ok := bucketQuantile(bs, q)
		p[name] = metric{v * 1e6, "us"}
		if !ok {
			res.Absent = append(res.Absent, name)
		}
	}
	absentUnless := func(on bool, names ...string) {
		if !on {
			res.Absent = append(res.Absent, names...)
		}
	}

	// core
	commits, aborts := d["stm_commits_total"], d.sum("stm_aborts_total")
	count("core.commits", commits)
	count("core.aborts", aborts)
	p["core.abort_ratio"] = metric{aborts / math.Max(1, commits+aborts), "ratio"}
	count("core.aborts_validate", d.sum("stm_aborts_total", `cause="validate"`))
	count("core.aborts_read_conflict", d.sum("stm_aborts_total", `cause="read-conflict"`))
	count("core.aborts_write_conflict", d.sum("stm_aborts_total", `cause="write-conflict"`))
	count("core.aborts_killed", d.sum("stm_aborts_total", `cause="killed"`))
	count("core.extensions", d["stm_extensions_total"])
	us("core.commit_p50_us", d.buckets("stm_commit_seconds"), 0.5)
	us("core.commit_p99_us", d.buckets("stm_commit_seconds"), 0.99)
	abortSec, commitSec := d.sum("stm_abort_seconds_sum"), d["stm_commit_seconds_sum"]
	p["core.abort_time_share"] = metric{abortSec / math.Max(1e-12, abortSec+commitSec), "ratio"}

	// cm, tuning, admission
	tuned, _ := after.tuning["enabled"].(bool)
	count("cm.switches", d["stm_cm_switches_total"])
	cmName, _ := after.stats["cm"].(string)
	p["cm.policy_final"] = metric{cmCodes[cmName], "code"}
	count("tuning.periods", jsonDelta(before.tuning, after.tuning, "periods_total"))
	count("tuning.reconfigs", d["stm_reconfigs_total"])
	p["tuning.last_move_s"] = metric{lastMoveAge(after.tuning), "s"}
	geo := func(k string) float64 { v, _ := jsonNum(after.stats, "params."+k); return v }
	p["tuning.final_locks_log2"] = metric{math.Log2(math.Max(1, geo("locks"))), "log2"}
	count("tuning.final_shifts", geo("shifts"))
	p["tuning.final_hier_log2"] = metric{math.Log2(math.Max(1, geo("hier"))), "log2"}
	absentUnless(tuned, "cm.switches", "cm.policy_final", "tuning.periods", "tuning.reconfigs", "tuning.last_move_s")

	gated, _ := after.stats["admission"].(map[string]any)["enabled"].(bool)
	admitted, waited := d["stmkvd_admission_admitted_total"], d["stmkvd_admission_waited_total"]
	count("admission.admitted", admitted)
	count("admission.waited", waited)
	p["admission.wait_ratio"] = metric{waited / math.Max(1, admitted), "ratio"}
	us("admission.wait_p99_us", d.buckets("stmkvd_admission_wait_seconds"), 0.99)
	count("admission.expired", d["stmkvd_admission_expired_total"])
	count("admission.width_final", after.prom["stmkvd_admission_width"])
	count("admission.moves", jsonDelta(before.tuning, after.tuning, "admission_moves"))
	absentUnless(gated, "admission.admitted", "admission.waited", "admission.wait_ratio",
		"admission.expired", "admission.width_final", "admission.moves")

	// wal
	appends, batches := d["stmkvd_wal_appends_total"], d["stmkvd_wal_batches_total"]
	count("wal.appends", appends)
	count("wal.batches", batches)
	count("wal.syncs", d["stmkvd_wal_syncs_total"])
	count("wal.records_per_batch", appends/math.Max(1, batches))
	us("wal.flush_p50_us", d.buckets("stmkvd_wal_flush_seconds"), 0.5)
	us("wal.flush_p99_us", d.buckets("stmkvd_wal_flush_seconds"), 0.99)
	count("wal.rotations", d["stmkvd_wal_rotations_total"])
	count("wal.checkpoints", jsonDelta(before.stats, after.stats, "durability.checkpoints.count"))
	absentUnless(sp.wal, "wal.appends", "wal.batches", "wal.syncs", "wal.records_per_batch", "wal.rotations", "wal.checkpoints")

	// mvcc
	count("mvcc.versions_published", d["stm_versions_published_total"])
	count("mvcc.versions_trimmed", d["stm_versions_trimmed_total"])
	count("mvcc.reads_live", d["stm_snapshot_reads_live_total"])
	count("mvcc.reads_sidecar", d["stm_snapshot_reads_sidecar_total"])
	count("mvcc.too_old", d["stm_snapshot_too_old_total"])
	count("mvcc.version_budget_final", after.prom["stm_version_budget"])

	// kvstore: how unevenly the retries fall on the store's shards.
	var shardAborts []float64
	for k, v := range d {
		if seriesMatches(k, "stmkvd_shard_aborts_total", nil) {
			shardAborts = append(shardAborts, v)
		}
	}
	p["kvstore.shard_abort_skew"] = metric{maxOverMean(shardAborts), "ratio"}

	// kvserver
	surface := `surface="proto"`
	if sp.http {
		surface = `surface="http"`
	}
	us("kvserver.req_p50_us", d.buckets("stmkvd_request_seconds", surface), 0.5)
	us("kvserver.req_p99_us", d.buckets("stmkvd_request_seconds", surface), 0.99)
	count("kvserver.deadline_shed", d.sum("stmkvd_deadline_shed_total"))
	count("kvserver.brownout_shed", d.sum("stmkvd_brownout_shed_total"))
	count("kvserver.proto_err_ops", d["stmkvd_proto_err_ops_total"])
	count("kvserver.bad_frames", d["stmkvd_proto_bad_frames_total"])
	absentUnless(!sp.http, "kvserver.proto_err_ops", "kvserver.bad_frames")

	// obs, process
	p["obs.scrape_ms"] = metric{float64(after.scrapeTook) / float64(time.Millisecond), "ms"}
	p["stmkvd.cpu_user_s"] = metric{after.proc.utime - before.proc.utime, "s"}
	p["stmkvd.cpu_sys_s"] = metric{after.proc.stime - before.proc.stime, "s"}
	p["stmkvd.rss_peak_mb"] = metric{final.proc.hwmMB, "MB"}
	count("stmkvd.threads", final.proc.threads)
	count("stmkvd.vol_ctx_switches", after.proc.volCtx-before.proc.volCtx)
	return p
}

// maxOverMean is the hottest element over the mean: 1 is perfectly even.
// All-zero input (no retries anywhere) is even by definition.
func maxOverMean(vals []float64) float64 {
	var sum, max float64
	for _, v := range vals {
		sum += v
		if v > max {
			max = v
		}
	}
	if sum == 0 {
		return 1
	}
	return max / (sum / float64(len(vals)))
}

// lastMoveAge is how many seconds of tuning periods have passed since the
// tuner last changed the geometry, from the /tuning event tail: 0 when the
// newest event moved, and the whole window when none did.
func lastMoveAge(tuning map[string]any) float64 {
	events, _ := tuning["events"].([]any)
	age := 0
	for i := len(events) - 1; i >= 0; i-- {
		ev, _ := events[i].(map[string]any)
		if idle, _ := ev["idle"].(bool); !idle && fmt.Sprint(ev["params"]) != fmt.Sprint(ev["next"]) {
			break
		}
		age++
	}
	return float64(age) * tuningPeriodS
}

// tuningPeriodS mirrors storm-tuned's -period flag.
const tuningPeriodS = 0.5

func summaryLines(r *result) string {
	var b strings.Builder
	emit := func(m metrics) {
		names := make([]string, 0, len(m))
		for n := range m {
			names = append(names, n)
		}
		sort.Strings(names)
		absent := map[string]bool{}
		for _, a := range r.Absent {
			absent[a] = true
		}
		for _, n := range names {
			if absent[n] {
				fmt.Fprintf(&b, "%s %s absent\n", r.Workload, n)
				continue
			}
			fmt.Fprintf(&b, "%s %s %.6g %s", r.Workload, n, m[n].Value, m[n].Unit)
			if c, ok := r.Samples[n]; ok {
				fmt.Fprintf(&b, " n=%d", c)
			}
			b.WriteByte('\n')
		}
	}
	emit(r.EndToEnd)
	emit(r.Raw)
	emit(r.PerLayer)
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "%s VIOLATION %s\n", r.Workload, v)
	}
	for _, v := range r.KnownDefects {
		fmt.Fprintf(&b, "%s KNOWN-DEFECT %s\n", r.Workload, v)
	}
	for _, v := range r.Invalid {
		fmt.Fprintf(&b, "%s INVALID %s\n", r.Workload, v)
	}
	return b.String()
}

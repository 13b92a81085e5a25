package tuning

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"tinystm/internal/core"
	"tinystm/internal/obs"
)

// System is the runtime's view of a tunable STM: an O(1) lock-free sampler
// for the commit/abort totals, live reconfiguration, and the current
// parameters. *core.TM satisfies it.
type System interface {
	// CommitAbortCounts returns monotonically increasing aggregate
	// counters. The runtime differentiates them per sample, so the call
	// must be cheap and must not perturb the transaction hot path.
	CommitAbortCounts() (commits, aborts uint64)
	// Reconfigure atomically replaces the tunable triple on the live
	// system.
	Reconfigure(core.Params) error
	// Params returns the currently installed triple.
	Params() core.Params
}

var _ System = (*core.TM)(nil)

// RuntimeConfig parameterizes a Runtime.
type RuntimeConfig struct {
	// Tuner configures the hill-climbing engine. A zero Initial is
	// replaced by the system's current parameters at Start.
	Tuner Config
	// Period is one throughput sample interval (the paper measures "over
	// a period of approximately one second"). Default 1s.
	Period time.Duration
	// Samples is the number of Period-long samples per tuning decision;
	// the maximum is kept (Section 4.3's max-of-3). Default 3.
	Samples int
	// MinPeriodCommits is the pause-on-idle threshold: when fewer commits
	// than this land during a whole period, the runtime discards the
	// measurement and holds the configuration — an idle application must
	// not teach the tuner that its current configuration is bad. Default 1
	// (pause only when fully quiescent).
	MinPeriodCommits uint64
	// Trace, when non-nil, receives one Event per period. Sends never
	// block: if the channel is full the event is dropped (the controller
	// must not stall behind a slow observer). Size the buffer to the run
	// when completeness matters.
	Trace chan<- Event
	// TraceCap, when positive, bounds the runtime's retained in-memory
	// trace to the most recent TraceCap events (oldest dropped). Long-
	// running servers must set it: at one event per period the unbounded
	// default grows forever. Zero keeps everything (experiment runs that
	// read the full path afterwards).
	TraceCap int

	// Controllers run after the geometry controller, in order, over the
	// same per-period Sample: NewAdmission, NewBrownout, or anything else
	// that implements Controller. A controller in the list is on; each
	// constructor takes the system it drives.
	Controllers []Controller

	// Latency, when non-nil, is the server's request-latency histogram
	// (nanoseconds). The runtime snapshots it once per period and
	// carries the period's p50/p99 deltas on every Sample — the measured
	// service-level consequence of each tuning move, next to the raw
	// throughput the climbers steer on.
	Latency *obs.Histogram

	// Now and After inject a clock for deterministic tests. Defaults:
	// time.Now and time.After.
	Now   func() time.Time
	After func(time.Duration) <-chan time.Time
}

func (c RuntimeConfig) withDefaults() RuntimeConfig {
	if c.Period <= 0 {
		c.Period = time.Second
	}
	if c.Samples <= 0 {
		c.Samples = 3
	}
	if c.MinPeriodCommits == 0 {
		c.MinPeriodCommits = 1
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	if c.After == nil {
		c.After = time.After
	}
	return c
}

// Runtime is the online auto-tuning loop (the paper's Section 4 "dynamic
// tuning" running inside the system rather than in a benchmark harness):
// a background goroutine builds one Sample per period from the system's
// aggregate counters, hands it to every controller — the hill-climbing
// geometry tuner first, then RuntimeConfig.Controllers — and applies the
// moves they choose to the live system.
//
// Start launches the loop; Stop halts it and waits for it to exit. A
// stopped Runtime can be started again and continues from the
// controllers' accumulated memory.
type Runtime struct {
	sys System
	cfg RuntimeConfig

	mu       sync.Mutex // guards everything below
	geom     *geometry  // ctls[0], kept typed for Best and Start
	ctls     []Controller
	names    []string             // ctls[i].Name()
	counts   []map[Outcome]uint64 // decisions per controller, by outcome
	trace    []Event
	periods  int
	running  bool
	starting bool // Start in progress: installing the initial configuration
	stopping bool // Stop in progress: stop closed, loop still draining
	stop     chan struct{}
	done     chan struct{}
}

// NewRuntime builds the loop over sys. The geometry tuner starts at
// cfg.Tuner.Initial, or at the system's current parameters when unset.
func NewRuntime(sys System, cfg RuntimeConfig) *Runtime {
	cfg = cfg.withDefaults()
	if cfg.Tuner.Initial == (core.Params{}) {
		cfg.Tuner.Initial = sys.Params()
	}
	geom := &geometry{sys: sys, t: New(cfg.Tuner)}
	r := &Runtime{sys: sys, cfg: cfg, geom: geom, ctls: append([]Controller{geom}, cfg.Controllers...)}
	for _, c := range r.ctls {
		r.names = append(r.names, c.Name())
		r.counts = append(r.counts, map[Outcome]uint64{})
	}
	return r
}

// Start launches the loop goroutine. It first reconfigures the system to
// the tuner's current configuration if the two disagree (e.g. a non-zero
// Tuner.Initial differing from the system's construction parameters).
func (r *Runtime) Start() error {
	r.mu.Lock()
	if r.running || r.starting {
		r.mu.Unlock()
		return fmt.Errorf("tuning: runtime already running")
	}
	// Claim the start before the unlocked Reconfigure below: a concurrent
	// Start must fail here rather than race in — its stale Reconfigure
	// could otherwise revert parameters the winner's loop has already
	// moved past.
	r.starting = true
	cur := r.geom.t.Current()
	r.mu.Unlock()

	// The initial Reconfigure runs outside r.mu: it freezes the world and
	// can block behind in-flight transactions, and Running/Best/Trace/Stop
	// must stay responsive meanwhile (same invariant as step).
	var err error
	if cur != r.sys.Params() {
		if e := r.sys.Reconfigure(cur); e != nil {
			err = fmt.Errorf("tuning: installing initial configuration %v: %w", cur, e)
		}
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	r.starting = false
	if err != nil {
		return err
	}
	r.stop = make(chan struct{})
	r.done = make(chan struct{})
	r.running = true
	go r.run(r.stop, r.done)
	return nil
}

// Stop halts the loop and waits for the goroutine to exit. Safe to call
// multiple times and on a never-started runtime. The runtime stays
// `running` (a concurrent Start fails) until the loop has actually
// exited: clearing the flag before the drain would let a Start race in a
// second loop goroutine against the old one mid-period.
func (r *Runtime) Stop() {
	r.mu.Lock()
	if !r.running {
		r.mu.Unlock()
		return
	}
	if !r.stopping {
		r.stopping = true
		close(r.stop)
	}
	done := r.done
	r.mu.Unlock()
	<-done
	r.mu.Lock()
	if r.done == done {
		// Still our generation (a concurrent Stop may have completed the
		// transition already, and a subsequent Start may have begun a new
		// one — never clobber that).
		r.running = false
		r.stopping = false
	}
	r.mu.Unlock()
}

// Running reports whether the loop goroutine is active.
func (r *Runtime) Running() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.running
}

// Best returns the best configuration seen so far and its throughput.
// Safe to call while the runtime is running.
func (r *Runtime) Best() (core.Params, float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.geom.t.Best()
}

// Periods returns the total number of tuning periods observed, including
// any whose events TraceCap has already evicted from Trace.
func (r *Runtime) Periods() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.periods
}

// Controllers lists the running controllers' names, geometry first.
func (r *Runtime) Controllers() []string { return r.names }

// Knob returns the setting the named controller believes is installed
// (the zero Knob when it is not running).
func (r *Runtime) Knob(name string) Knob {
	r.mu.Lock()
	defer r.mu.Unlock()
	if i := slices.Index(r.names, name); i >= 0 {
		return r.ctls[i].Knob()
	}
	return Knob{}
}

// Count returns how many of the named controller's decisions ended in
// outcome o (zero when it is not running).
func (r *Runtime) Count(name string, o Outcome) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if i := slices.Index(r.names, name); i >= 0 {
		return r.counts[i][o]
	}
	return 0
}

// Moves returns how many of the named controller's moves landed on the
// live system: its Moved plus Reverted decisions.
func (r *Runtime) Moves(name string) int {
	return int(r.Count(name, Moved) + r.Count(name, Reverted))
}

// Trace returns a copy of the per-period event log (the most recent
// TraceCap events when a cap is configured).
func (r *Runtime) Trace() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, len(r.trace))
	copy(out, r.trace)
	return out
}

// baseline is the sampler's memory between periods: the counter values a
// period's deltas are taken against.
type baseline struct {
	commits, aborts uint64
	lat             obs.Snapshot
	t               time.Time
}

// rebase reads every source the Sample is differenced from.
func (r *Runtime) rebase() (b baseline) {
	b.commits, b.aborts = r.sys.CommitAbortCounts()
	if r.cfg.Latency != nil {
		b.lat = r.cfg.Latency.Snapshot()
	}
	b.t = r.cfg.Now()
	return b
}

// run is the sampler loop. stop/done are captured at Start so a
// concurrent Stop+Start pair cannot cross wires.
func (r *Runtime) run(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	base := r.rebase()
	for {
		var s Sample
		lastC, lastT := base.commits, base.t
		for i := 0; i < r.cfg.Samples; i++ {
			select {
			case <-stop:
				return
			case <-r.cfg.After(r.cfg.Period):
			}
			c, _ := r.sys.CommitAbortCounts()
			t := r.cfg.Now()
			if secs := t.Sub(lastT).Seconds(); secs > 0 {
				s.Throughput = max(s.Throughput, float64(c-lastC)/secs)
			}
			lastC, lastT = c, t
		}
		end := r.rebase()
		s.Commits, s.Aborts = end.commits-base.commits, end.aborts-base.aborts
		if lat := end.lat.Sub(&base.lat); lat.Count > 0 {
			s.LatP50 = time.Duration(lat.Quantile(0.50))
			s.LatP99 = time.Duration(lat.Quantile(0.99))
			s.LatSamples = lat.Count
		}
		// Pause on idle: an idle application must not teach any
		// controller that its current setting is bad.
		s.Idle = s.Commits < r.cfg.MinPeriodCommits
		r.step(s)
		// Re-baseline after the decision: step can block arbitrarily long
		// in Reconfigure's world-freeze, during which commits are
		// suppressed. Without a fresh baseline the new configuration's
		// first sample window would include that pause and read
		// systematically low — every move would look like a throughput
		// drop, spuriously triggering the tuner's reverse/forbid rules.
		// The latency baseline follows the same rule: requests stalled
		// behind the freeze must not be charged to the next period.
		base = r.rebase()
	}
}

// step runs one period of the controller loop: every controller observes
// the sample under the lock, the moves are applied outside it (Reconfigure
// freezes the world and can block behind in-flight transactions, and
// Stop/Best/Trace must stay responsive), and failed moves are rolled back.
func (r *Runtime) step(s Sample) {
	r.mu.Lock()
	s.Period = r.periods
	r.periods++
	ds := observe(r.ctls, s)
	r.mu.Unlock()

	install(r.ctls, ds)

	ev := Event{Sample: s, Decisions: ds}
	r.mu.Lock()
	for i, d := range ds {
		if d.Err != nil {
			r.ctls[i].Revert(d)
		}
		r.counts[i][d.Outcome()]++
	}
	r.appendTrace(ev)
	r.mu.Unlock()
	r.emit(ev)
}

// appendTrace records an event, enforcing TraceCap. Caller holds r.mu.
func (r *Runtime) appendTrace(ev Event) {
	r.trace = append(r.trace, ev)
	if limit := r.cfg.TraceCap; limit > 0 && len(r.trace) > limit {
		n := copy(r.trace, r.trace[len(r.trace)-limit:])
		r.trace = r.trace[:n]
	}
}

// emit publishes an event on the trace channel without ever blocking.
func (r *Runtime) emit(ev Event) {
	if r.cfg.Trace == nil {
		return
	}
	select {
	case r.cfg.Trace <- ev:
	default:
	}
}

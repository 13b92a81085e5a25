package tuning

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"tinystm/internal/core"
)

// System is the runtime's view of a tunable STM: a sampler for the
// commit/abort totals (on *core.TM, one pass over the descriptor table),
// live reconfiguration, and the current parameters. *core.TM satisfies it.
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

// Sample is one tuning period's measurement: the paper's "measure" step,
// read by the hill climber.
type Sample struct {
	// Period is the zero-based index of the tuning period.
	Period int `json:"period"`
	// Throughput is the maximum commits/second over the period's samples
	// (Section 4.3 measures three times and keeps the maximum).
	Throughput float64 `json:"throughput"`
	// Commits and Aborts are the raw counter deltas over the whole period.
	Commits uint64 `json:"commits"`
	Aborts  uint64 `json:"aborts"`
	// Idle marks a paused period: nothing committed, so the measurement
	// says nothing about the geometry and the tuner holds.
	Idle bool `json:"idle,omitempty"`
}

// Outcome classifies one period's decision.
type Outcome int

const (
	Held  Outcome = iota // the setting stayed
	Moved                // a move landed on the live system
	// Reverted is a landed move that backed out to the best-known
	// configuration (Event.Reversed): the tuner undoing an
	// earlier move.
	Reverted
	Failed // Reconfigure returned an error; the tuner was rolled back
)

// Outcomes lists every outcome (exporters register each series up front).
var Outcomes = [...]Outcome{Held, Moved, Reverted, Failed}

func (o Outcome) String() string { return [...]string{"held", "moved", "reverted", "failed"}[o] }

// Tally counts the tuner's decisions by outcome.
type Tally [len(Outcomes)]uint64

// Landed is how many moves reached the live system: Moved plus Reverted.
func (t Tally) Landed() uint64 { return t[Moved] + t[Reverted] }

// Event is one tuning period as observed by the runtime — the Sample and
// what the hill climber chose on it — published on the trace channel and
// retained in the runtime's own trace.
type Event struct {
	Sample
	// From is the triple live during the period, To the one chosen for
	// the next; Moved marks a change (the runtime then calls Reconfigure).
	From, To core.Params
	Moved    bool
	// Move is the hill climber's move number and Reversed the paper's
	// "-x" notation (reverse to best, then move x).
	Move     Move
	Reversed bool
	// Err reports a failed Reconfigure: the system kept From and the
	// tuner was reverted to it.
	Err error
}

// Outcome classifies e's decision once Reconfigure has run.
func (e Event) Outcome() Outcome {
	switch {
	case e.Err != nil:
		return Failed
	case !e.Moved:
		return Held
	case e.Reversed:
		return Reverted
	}
	return Moved
}

// String renders one trace line: the tuner's "cfg → tp via move", then a
// failed Reconfigure, when there was one.
func (e Event) String() string {
	var b strings.Builder
	if e.Idle {
		fmt.Fprintf(&b, "period %d: %v idle (%d commits), holding", e.Period, e.From, e.Commits)
	} else {
		fmt.Fprintf(&b, "period %d: %v %.0f txs/s, move %v -> %v", e.Period, e.From, e.Throughput, e.Move.Signed(e.Reversed), e.To)
	}
	if e.Err != nil {
		fmt.Fprintf(&b, ", geometry %v -> %v failed: %v", e.From, e.To, e.Err)
	}
	return b.String()
}

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
	// Trace, when non-nil, receives one Event per period. Sends never
	// block: if the channel is full the event is dropped (the loop
	// must not stall behind a slow observer). Size the buffer to the run
	// when completeness matters.
	Trace chan<- Event
	// TraceCap, when positive, bounds the runtime's retained in-memory
	// trace to the most recent TraceCap events (oldest dropped). Long-
	// running servers must set it: at one event per period the unbounded
	// default grows forever. Zero keeps everything (experiment runs that
	// read the full path afterwards).
	TraceCap int

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
// commit/abort totals, steps the hill-climbing tuner on it, installs the
// triple it chooses with Reconfigure, reverting the tuner when that fails.
//
// Start launches the loop; Stop halts it and waits for it to exit. A
// Runtime runs once: Start after Start or after Stop fails.
type Runtime struct {
	sys System
	cfg RuntimeConfig

	stop     chan struct{} // closed by the first Stop
	stopOnce sync.Once
	done     chan struct{} // closed when a started loop has exited

	mu      sync.Mutex // guards everything below
	tuner   *Tuner
	geomN   Tally // the tuner's decisions, by outcome
	trace   []Event
	periods int
	used    bool // Start or Stop has been called
	started bool // Start was called: done will close
}

// NewRuntime builds the loop over sys. The geometry tuner starts at
// cfg.Tuner.Initial, or at the system's current parameters when unset.
func NewRuntime(sys System, cfg RuntimeConfig) *Runtime {
	cfg = cfg.withDefaults()
	if cfg.Tuner.Initial == (core.Params{}) {
		cfg.Tuner.Initial = sys.Params()
	}
	return &Runtime{
		sys: sys, cfg: cfg, tuner: New(cfg.Tuner),
		stop: make(chan struct{}), done: make(chan struct{}),
	}
}

// Start launches the loop goroutine. It first reconfigures the system to
// the tuner's current configuration if the two disagree (e.g. a non-zero
// Tuner.Initial differing from the system's construction parameters).
func (r *Runtime) Start() error {
	r.mu.Lock()
	if r.used {
		r.mu.Unlock()
		return fmt.Errorf("tuning: runtime already started or stopped (a Runtime runs once)")
	}
	r.used, r.started = true, true
	cur := r.tuner.Current()
	r.mu.Unlock()

	// The initial Reconfigure runs outside r.mu: it freezes the world and
	// can block behind in-flight transactions, and Running/Best/Trace/Stop
	// must stay responsive meanwhile (same invariant as step).
	if cur != r.sys.Params() {
		if err := r.sys.Reconfigure(cur); err != nil {
			close(r.done)
			return fmt.Errorf("tuning: installing initial configuration %v: %w", cur, err)
		}
	}
	go r.run()
	return nil
}

// Stop halts the loop and waits for the goroutine to exit. Safe to call
// multiple times, concurrently, and before Start, which then fails.
func (r *Runtime) Stop() {
	r.mu.Lock()
	r.used = true
	started := r.started
	r.mu.Unlock()
	r.stopOnce.Do(func() { close(r.stop) })
	if started {
		<-r.done
	}
}

// Running reports whether the runtime has been started and its loop has
// not exited.
func (r *Runtime) Running() bool {
	r.mu.Lock()
	started := r.started
	r.mu.Unlock()
	if !started {
		return false
	}
	select {
	case <-r.done:
		return false
	default:
		return true
	}
}

// Best returns the best configuration seen so far and its throughput.
// Safe to call while the runtime is running.
func (r *Runtime) Best() (core.Params, float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.tuner.Best()
}

// Periods returns the total number of tuning periods observed, including
// any whose events TraceCap has already evicted from Trace.
func (r *Runtime) Periods() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.periods
}

// Current returns the triple the tuner believes is installed.
func (r *Runtime) Current() core.Params {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.tuner.Current()
}

// Counts returns how the tuner's decisions have ended so far, by outcome.
func (r *Runtime) Counts() Tally {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.geomN
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
	t               time.Time
}

// rebase reads every source the Sample is differenced from.
func (r *Runtime) rebase() (b baseline) {
	b.commits, b.aborts = r.sys.CommitAbortCounts()
	b.t = r.cfg.Now()
	return b
}

// run is the sampler loop.
func (r *Runtime) run() {
	defer close(r.done)
	base := r.rebase()
	for {
		var s Sample
		lastC, lastT := base.commits, base.t
		for i := 0; i < r.cfg.Samples; i++ {
			select {
			case <-r.stop:
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
		// Pause on idle: a period that commits nothing must not teach the
		// tuner that its current configuration is bad.
		s.Idle = s.Commits == 0
		r.step(s)
		// Re-baseline after the decision: step can block arbitrarily long
		// in Reconfigure's world-freeze, during which commits are
		// suppressed. Without a fresh baseline the new configuration's
		// first sample window would include that pause and read
		// systematically low — every move would look like a throughput
		// drop, spuriously triggering the tuner's reverse/forbid rules.
		base = r.rebase()
	}
}

// step runs one period of the loop: the tuner decides under the lock
// (skipping idle periods, which teach it nothing), the move is installed
// outside it — Reconfigure freezes the world and can block behind
// in-flight transactions, and Stop/Best/Trace must stay responsive — and a
// failed Reconfigure puts the tuner back on the triple that still runs.
func (r *Runtime) step(s Sample) {
	r.mu.Lock()
	s.Period = r.periods
	r.periods++
	cur := r.tuner.Current()
	ev := Event{Sample: s, From: cur, To: cur}
	if !s.Idle {
		ev.To, ev.Move, ev.Reversed = r.tuner.Step(s.Throughput)
		ev.Moved = ev.To != cur
	}
	r.mu.Unlock()

	if ev.Moved {
		ev.Err = r.sys.Reconfigure(ev.To)
	}

	r.mu.Lock()
	if ev.Err != nil {
		r.tuner.revert(ev.From)
	}
	r.geomN[ev.Outcome()]++
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

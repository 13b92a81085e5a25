package tuning

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"tinystm/internal/core"
	"tinystm/internal/harness"
	"tinystm/internal/mem"
)

// fakeSystem is the STM's geometry behind one fake clock: time only
// advances when the runtime waits for a sample, and each advance calls
// tick, the test's synthetic workload, to accrue counters from the triple
// live at that moment. After maxTicks waits it hands the runtime a channel
// that never fires and signals the test, making the whole loop
// deterministic — no goroutine coordination, no wall clock.
type fakeSystem struct {
	mu          sync.Mutex
	now         time.Time
	ticks       int
	maxTicks    int
	reached     chan struct{} // closed (once) when maxTicks waits have elapsed
	reachedOnce sync.Once
	// tick runs under mu on the runtime goroutine after each clock
	// advance: it reads the live triple and bumps the counters.
	tick func(f *fakeSystem, d time.Duration)

	params core.Params
	// Monotonic counters the sampler differences.
	commits, aborts uint64
	reconfigs       int
}

func newFakeSystem(start core.Params, maxTicks int, tick func(*fakeSystem, time.Duration)) *fakeSystem {
	return &fakeSystem{
		now: time.Unix(0, 0), params: start, maxTicks: maxTicks, tick: tick,
		reached: make(chan struct{}),
	}
}

// commitsAt is the plain workload: commits accrue at a synthetic
// per-configuration rate, nothing aborts.
func commitsAt(rate func(core.Params) float64) func(*fakeSystem, time.Duration) {
	return func(f *fakeSystem, d time.Duration) { f.commits += uint64(rate(f.params) * d.Seconds()) }
}

func (f *fakeSystem) locked(fn func()) {
	f.mu.Lock()
	defer f.mu.Unlock()
	fn()
}

func (f *fakeSystem) CommitAbortCounts() (c, a uint64) {
	f.locked(func() { c, a = f.commits, f.aborts })
	return
}
func (f *fakeSystem) Params() (p core.Params) { f.locked(func() { p = f.params }); return }
func (f *fakeSystem) Now() (t time.Time)      { f.locked(func() { t = f.now }); return }

func (f *fakeSystem) Reconfigure(p core.Params) error {
	f.locked(func() { f.params = p; f.reconfigs++ })
	return nil
}

func (f *fakeSystem) After(d time.Duration) <-chan time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	ch := make(chan time.Time, 1)
	if f.ticks >= f.maxTicks {
		f.reachedOnce.Do(func() { close(f.reached) })
		return ch // never fires; the runtime parks until Stop
	}
	f.ticks++
	f.now = f.now.Add(d)
	f.tick(f, d)
	ch <- f.now
	return ch
}

// config is the fake-clock runtime configuration: 1s periods, max-of-3.
func (f *fakeSystem) config(tcfg Config) RuntimeConfig {
	return RuntimeConfig{Tuner: tcfg, Period: time.Second, Samples: 3, Now: f.Now, After: f.After}
}

// runToEnd starts rt, lets the fake clock run out, and stops it.
func (f *fakeSystem) runToEnd(t *testing.T, rt *Runtime) []Event {
	t.Helper()
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	<-f.reached
	rt.Stop()
	return rt.Trace()
}

// The runtime under a fake clock must escape the deliberately bad 2^8
// start of Section 4.3 and park on a configuration within 10% of the best
// throughput it ever saw — without any manual driving of the tuner.
func TestRuntimeConvergesDeterministically(t *testing.T) {
	start := p(8, 0, 1)
	opt := p(18, 3, 4)
	rate := synthetic(opt)
	const periods = 300
	env := newFakeSystem(start, periods*3, commitsAt(rate))
	rt := NewRuntime(env, env.config(Config{Initial: start, Seed: 7}))
	trace := env.runToEnd(t, rt)

	best, bestTp, _ := rt.Best()
	if best.Locks <= 1<<8 {
		t.Errorf("tuner never escaped the 2^8 start: best %v", best)
	}
	final := rt.Current()
	if got := rate(final); got < bestTp*0.9 {
		t.Errorf("final configuration %v yields %.1f, more than 10%% below best seen %.1f (at %v)",
			final, got, bestTp, best)
	}
	if env.reconfigs == 0 {
		t.Error("runtime never reconfigured the system")
	}
	if geom := rt.Counts(); geom.Landed() != uint64(env.reconfigs) {
		t.Errorf("%d landed moves counted, system saw %d reconfigurations", geom.Landed(), env.reconfigs)
	}
	if len(trace) < periods-1 {
		t.Errorf("trace has %d events, want ~%d", len(trace), periods)
	}
	// A period's deltas are its own three samples at the triple it ran:
	// the baseline is re-taken after every decision.
	for _, ev := range trace {
		if want := 3 * uint64(rate(ev.From)); ev.Commits != want || ev.Aborts != 0 {
			t.Fatalf("period %d at %v: %d commits, %d aborts; want %d, 0", ev.Period, ev.From, ev.Commits, ev.Aborts, want)
		}
	}
}

// sameTrace fails the test unless two runs took the same path, event for
// event and decision for decision.
func sameTrace(t *testing.T, a, b []Event) {
	t.Helper()
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("trace lengths differ or empty: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			t.Fatalf("trace diverges at period %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// Same seed, same synthetic surface, same fake clock: two runs must take
// exactly the same configuration path.
func TestRuntimeDeterministicUnderSeed(t *testing.T) {
	run := func() []Event {
		env := newFakeSystem(p(8, 0, 1), 60*3, commitsAt(synthetic(p(16, 2, 4))))
		rt := NewRuntime(env, env.config(Config{Initial: p(8, 0, 1), Seed: 42}))
		return env.runToEnd(t, rt)
	}
	sameTrace(t, run(), run())
}

// A quiescent application must pause the tuner, not teach it that the
// current configuration is worthless.
func TestRuntimePausesOnIdle(t *testing.T) {
	start := p(10, 0, 1)
	env := newFakeSystem(start, 10*3, commitsAt(func(core.Params) float64 { return 0 }))
	rt := NewRuntime(env, env.config(Config{Initial: start, Seed: 1}))
	trace := env.runToEnd(t, rt)
	if len(trace) == 0 {
		t.Fatal("no events recorded")
	}
	for _, ev := range trace {
		if !ev.Idle {
			t.Fatalf("event not marked idle: %+v", ev)
		}
		if ev.Moved || ev.To != start {
			t.Fatalf("idle period moved the configuration: %+v", ev)
		}
	}
	if env.reconfigs != 0 {
		t.Errorf("idle runtime reconfigured %d times", env.reconfigs)
	}
	if cur := rt.Current(); cur != start {
		t.Errorf("tuner moved while idle: %v", cur)
	}
	// No period was measured, so there is no best to report.
	if best, tp, ok := rt.Best(); ok {
		t.Errorf("idle runtime reports best %v at %.0f", best, tp)
	}
}

// A Runtime runs once: a second Start fails, Start after Stop fails, and
// Stop is idempotent and safe before Start.
func TestRuntimeLifecycle(t *testing.T) {
	env := newFakeSystem(p(8, 0, 1), 1<<30, commitsAt(synthetic(p(12, 0, 1))))
	unused := NewRuntime(env, env.config(Config{Initial: p(8, 0, 1), Seed: 5}))
	unused.Stop() // never started: returns at once
	unused.Stop()
	if err := unused.Start(); err == nil {
		t.Fatal("Start after Stop did not fail")
	}
	if unused.Running() {
		t.Fatal("a runtime stopped before Start is running")
	}

	rt := NewRuntime(env, env.config(Config{Initial: p(8, 0, 1), Seed: 5}))
	if rt.Running() {
		t.Fatal("running before Start")
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err == nil {
		t.Fatal("second Start did not fail")
	}
	if !rt.Running() {
		t.Fatal("not running after Start")
	}
	rt.Stop()
	rt.Stop() // idempotent
	if rt.Running() {
		t.Fatal("running after Stop")
	}
	if err := rt.Start(); err == nil {
		t.Fatal("Start after Stop did not fail")
	}
}

// slowReconfEnv parks the controller inside Reconfigure for a while and
// reports when it got there, so the test can probe the Stop-in-progress
// window deterministically.
type slowReconfEnv struct {
	mu      sync.Mutex
	params  core.Params
	commits uint64
	entered chan struct{}
	once    sync.Once
	delay   time.Duration
}

func (s *slowReconfEnv) CommitAbortCounts() (uint64, uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.commits += 1000 // always busy: never the idle path
	return s.commits, 0
}

func (s *slowReconfEnv) Reconfigure(p core.Params) error {
	s.once.Do(func() { close(s.entered) })
	time.Sleep(s.delay)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.params = p
	return nil
}

func (s *slowReconfEnv) Params() core.Params {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.params
}

// Stop waits for a loop that is mid-period, and Start fails both while
// that drain runs and after it: a second loop goroutine beside the old
// one would double-feed the tuner and interleave Reconfigures.
func TestRuntimeStartBlockedUntilStopCompletes(t *testing.T) {
	start := p(8, 0, 1)
	env := &slowReconfEnv{params: start, entered: make(chan struct{}), delay: 500 * time.Millisecond}
	immediate := func(time.Duration) <-chan time.Time {
		ch := make(chan time.Time, 1)
		ch <- time.Now()
		return ch
	}
	rt := NewRuntime(env, RuntimeConfig{
		Tuner:  Config{Initial: start, Seed: 1},
		Period: time.Second, Samples: 1,
		Now: time.Now, After: immediate,
	})
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	<-env.entered // controller is now inside Reconfigure for ~delay
	stopped := make(chan struct{})
	go func() { rt.Stop(); close(stopped) }()
	time.Sleep(50 * time.Millisecond) // let Stop close the stop channel
	// The controller is still sleeping inside Reconfigure (delay >> 50ms),
	// so Stop cannot have completed and Start must be refused.
	if err := rt.Start(); err == nil {
		t.Fatal("Start succeeded while Stop was still draining the controller")
	}
	select {
	case <-stopped:
		t.Fatal("Stop returned while the loop was still inside Reconfigure")
	default:
	}
	<-stopped
	if rt.Running() {
		t.Fatal("running after Stop returned")
	}
	if err := rt.Start(); err == nil {
		t.Fatal("Start after a completed Stop succeeded")
	}
}

// Live end-to-end under the race detector: real workers on a real TM, the
// runtime reconfiguring underneath them, concurrent Stats()/sampler
// polling, and a mid-run workload phase shift (update-rate and
// working-set-size flip).
func TestRuntimeLiveWorkersPhaseShift(t *testing.T) {
	sp := mem.NewSpace(1 << 18)
	start := core.Params{Locks: 1 << 8, Shifts: 0, Hier: 1}
	tm := core.MustNew(core.Config{Space: sp, Locks: start.Locks})

	base := harness.IntsetParams{Kind: harness.KindList, InitialSize: 128, UpdatePct: 10}
	set := harness.BuildIntset[*core.Tx](tm, base, 3)
	hot := base
	hot.UpdatePct = 80
	hot.Range = 64 // shrink the working set: hotter conflicts
	phased := harness.IntsetPhases[*core.Tx](tm, set, base, hot)
	workers := harness.StartWorkers[*core.Tx](tm, 4, 3, phased.Op())
	defer workers.Stop()

	const totalPeriods = 16
	traceCh := make(chan Event, totalPeriods*2)
	rt := NewRuntime(tm, RuntimeConfig{
		Tuner: Config{
			Initial: start, Seed: 3,
			// Small bounds keep lock-array allocations cheap in a race
			// test; the walk still has room to move.
			Bounds: Bounds{MinLocks: 1 << 6, MaxLocks: 1 << 14,
				MaxShifts: 4, MinHier: 1, MaxHier: 8},
		},
		Period: 10 * time.Millisecond, Samples: 2, Trace: traceCh,
	})

	pollStop := make(chan struct{})
	var pollWg sync.WaitGroup
	pollWg.Add(1)
	go func() {
		defer pollWg.Done()
		for {
			select {
			case <-pollStop:
				return
			default:
			}
			tm.Stats()
			tm.CommitAbortCounts()
			time.Sleep(200 * time.Microsecond)
		}
	}()

	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	periods := 0
	deadline := time.After(30 * time.Second)
	for periods < totalPeriods {
		select {
		case <-traceCh:
			periods++
			if periods == totalPeriods/2 {
				phased.SetPhase(1)
			}
		case <-deadline:
			t.Fatal("runtime produced too few periods before deadline")
		}
	}
	rt.Stop()
	close(pollStop)
	pollWg.Wait()

	trace := rt.Trace()
	if len(trace) < totalPeriods {
		t.Fatalf("trace has %d events, want >= %d", len(trace), totalPeriods)
	}
	moved := false
	for _, ev := range trace {
		if ev.Moved {
			moved = true
		}
		if ev.Err != nil {
			t.Errorf("reconfigure failed: %v", ev.Err)
		}
	}
	if !moved {
		t.Error("runtime never moved the configuration")
	}
	if s := tm.Stats(); s.Reconfigs == 0 {
		t.Error("no reconfigurations reached the TM")
	}
}

func TestRuntimeTraceCap(t *testing.T) {
	r := &Runtime{cfg: RuntimeConfig{TraceCap: 3}.withDefaults()}
	for i := 0; i < 10; i++ {
		r.appendTrace(Event{Sample: Sample{Period: i}})
	}
	tr := r.Trace()
	if len(tr) != 3 || tr[0].Period != 7 || tr[2].Period != 9 {
		t.Fatalf("capped trace wrong: %+v", tr)
	}
	if r.Periods() != 0 {
		// appendTrace does not advance the period counter; step does.
		t.Fatalf("Periods = %d", r.Periods())
	}
}

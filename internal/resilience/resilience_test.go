package resilience

import (
	"errors"
	"slices"
	"testing"
	"time"
)

func TestParseTimeout(t *testing.T) {
	cases := []struct {
		in   string
		want time.Duration
		err  bool
	}{
		{"", 0, false},
		{"1", time.Millisecond, false},
		{"250", 250 * time.Millisecond, false},
		{"3600000", time.Hour, false},
		{"3600001", 0, true},
		{"0", 0, true},
		{"-5", 0, true},
		{"abc", 0, true},
		{"1.5", 0, true},
		{"4294967296", 0, true},
	}
	for _, c := range cases {
		got, err := ParseTimeout(c.in)
		if c.err {
			if !errors.Is(err, ErrBadTimeout) {
				t.Errorf("ParseTimeout(%q): want ErrBadTimeout, got %v", c.in, err)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("ParseTimeout(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
}

func TestTimeoutMs(t *testing.T) {
	cases := []struct {
		in   time.Duration
		want uint32
	}{
		{0, 0},
		{-time.Second, 0},
		{time.Microsecond, 1}, // rounds UP: sub-ms budget must not become "no deadline"
		{time.Millisecond, 1},
		{time.Millisecond + 1, 2},
		{250 * time.Millisecond, 250},
		{2 * time.Hour, 3600000},
	}
	for _, c := range cases {
		if got := TimeoutMs(c.in); got != c.want {
			t.Errorf("TimeoutMs(%v) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestRetryBudgetBoundsRetries(t *testing.T) {
	b := NewRetryBudget(&RetryBudgetConfig{Tokens: 3})
	for i := 0; i < 3; i++ {
		if !b.Allow() {
			t.Fatalf("retry %d: denied with tokens available", i)
		}
	}
	if b.Allow() {
		t.Fatal("empty bucket allowed a retry")
	}
	// Ten successes earn one token back: sustained retries are bounded
	// by 10% of successful traffic.
	for i := 0; i < 9; i++ {
		b.Credit()
	}
	if b.Allow() {
		t.Fatal("nine tenths of a token allowed a retry")
	}
	b.Credit()
	if !b.Allow() {
		t.Fatal("earned token denied")
	}
	st := b.Stats()
	if st.Allowed != 4 || st.Denied != 2 {
		t.Fatalf("stats = %+v, want allowed=4 denied=2", st)
	}
}

func TestRetryBudgetCapsAtTokens(t *testing.T) {
	b := NewRetryBudget(&RetryBudgetConfig{Tokens: 2})
	b.Allow()
	for i := 0; i < 100; i++ {
		b.Credit()
	}
	if st := b.Stats(); st.Tokens != 2 || st.Cap != 2 {
		t.Fatalf("tokens = %v/%v, want capped at 2", st.Tokens, st.Cap)
	}
	if d := NewRetryBudget(nil).Stats(); d.Tokens != 16 || d.Cap != 16 {
		t.Fatalf("default bucket = %v/%v, want 16/16", d.Tokens, d.Cap)
	}
}

func TestRetrierBackoffAndBudget(t *testing.T) {
	var sleeps []time.Duration
	budget := NewRetryBudget(&RetryBudgetConfig{Tokens: 2})
	r := NewRetrier(RetryConfig{
		MaxAttempts: 10,
		BaseBackoff: 10 * time.Millisecond,
		Budget:      budget,
		Retryable:   func(error) bool { return true },
		Sleep:       func(d time.Duration) { sleeps = append(sleeps, d) },
	})
	errBoom := errors.New("boom")
	calls := 0
	err := r.Do(func() error { calls++; return errBoom })
	if !errors.Is(err, errBoom) {
		t.Fatalf("err = %v, want boom", err)
	}
	// 1 first attempt + 2 budget-funded retries; attempt 4 denied.
	if calls != 3 {
		t.Fatalf("calls = %d, want 3 (budget of 2 retries)", calls)
	}
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond}
	if len(sleeps) != len(want) || sleeps[0] != want[0] || sleeps[1] != want[1] {
		t.Fatalf("sleeps = %v, want %v", sleeps, want)
	}
	if r.Retries() != 2 {
		t.Fatalf("retries = %d, want 2", r.Retries())
	}
}

// Without a budget the backoff doubles until it reaches the one-second
// cap and then stays there.
func TestRetrierBackoffCapsAtMax(t *testing.T) {
	var sleeps []time.Duration
	r := NewRetrier(RetryConfig{
		MaxAttempts: 6,
		BaseBackoff: 300 * time.Millisecond,
		Retryable:   func(error) bool { return true },
		Sleep:       func(d time.Duration) { sleeps = append(sleeps, d) },
	})
	_ = r.Do(func() error { return errors.New("boom") })
	want := []time.Duration{300 * time.Millisecond, 600 * time.Millisecond, time.Second, time.Second, time.Second}
	if !slices.Equal(sleeps, want) {
		t.Fatalf("sleeps = %v, want %v", sleeps, want)
	}
}

func TestRetrierStopsOnNonRetryable(t *testing.T) {
	r := NewRetrier(RetryConfig{
		MaxAttempts: 5,
		Retryable:   func(error) bool { return false },
		Sleep:       func(time.Duration) { t.Fatal("slept on non-retryable error") },
	})
	calls := 0
	errBoom := errors.New("boom")
	if err := r.Do(func() error { calls++; return errBoom }); !errors.Is(err, errBoom) || calls != 1 {
		t.Fatalf("err=%v calls=%d, want boom after 1 call", err, calls)
	}
}

func TestRetrierSucceedsAfterRetry(t *testing.T) {
	r := NewRetrier(RetryConfig{
		MaxAttempts: 5,
		Retryable:   func(error) bool { return true },
		Sleep:       func(time.Duration) {},
	})
	calls := 0
	err := r.Do(func() error {
		if calls++; calls < 3 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("err=%v calls=%d, want success on call 3", err, calls)
	}
}

// fakeClock drives the breaker deterministically.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func newTestBreaker(clk *fakeClock, threshold int) *Breaker {
	return NewBreaker(&BreakerConfig{
		FailureThreshold: threshold,
		Cooldown:         time.Second,
		Seed:             42,
		Now:              clk.now,
	})
}

func TestBreakerFullCycle(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	b := newTestBreaker(clk, 3)

	if b.State() != BreakerClosed || !b.Allow() {
		t.Fatal("new breaker must be closed and allowing")
	}
	b.Failure()
	b.Failure()
	if b.State() != BreakerClosed {
		t.Fatal("opened below threshold")
	}
	b.Failure() // third consecutive failure trips it
	if b.State() != BreakerOpen {
		t.Fatal("threshold reached but still closed")
	}
	if b.Allow() {
		t.Fatal("open breaker allowed a dial before cooldown")
	}

	// Jitter keeps the cooldown within ±10%; at 1.1s it must have elapsed.
	clk.advance(1100 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("cooldown elapsed but probe denied")
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state = %v, want half-open", b.State())
	}
	if b.Allow() {
		t.Fatal("second concurrent probe allowed while half-open")
	}
	b.Success() // probe succeeded
	if b.State() != BreakerClosed || !b.Allow() {
		t.Fatal("successful probe did not close the breaker")
	}
	c := b.Counts()
	if c.Opens != 1 || c.Probes != 1 || c.Closes != 1 {
		t.Fatalf("counts = %+v, want one full open->half-open->closed cycle", c)
	}
}

func TestBreakerReopensOnFailedProbe(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	b := newTestBreaker(clk, 1)
	b.Failure()
	if b.State() != BreakerOpen {
		t.Fatal("threshold-1 breaker did not open on first failure")
	}
	clk.advance(2 * time.Second)
	if !b.Allow() {
		t.Fatal("probe denied after cooldown")
	}
	b.Failure() // probe failed: straight back to open
	if b.State() != BreakerOpen {
		t.Fatalf("state = %v, want open after failed probe", b.State())
	}
	if b.Allow() {
		t.Fatal("re-opened breaker allowed a dial before the new cooldown")
	}
	c := b.Counts()
	if c.Opens != 2 || c.Closes != 0 {
		t.Fatalf("counts = %+v, want two opens and no closes", c)
	}
}

func TestBreakerSuccessResetsConsecutiveFailures(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	b := newTestBreaker(clk, 3)
	b.Failure()
	b.Failure()
	b.Success() // healthy response wipes the streak
	b.Failure()
	b.Failure()
	if b.State() != BreakerClosed {
		t.Fatal("non-consecutive failures tripped the breaker")
	}
	b.Failure()
	if b.State() != BreakerOpen {
		t.Fatal("three consecutive failures did not trip")
	}
}

func TestBreakerJitterIsDeterministic(t *testing.T) {
	until := func() time.Time {
		clk := &fakeClock{t: time.Unix(1000, 0)}
		b := newTestBreaker(clk, 1)
		b.Failure()
		b.mu.Lock()
		defer b.mu.Unlock()
		return b.openUntil
	}
	a, c := until(), until()
	if !a.Equal(c) {
		t.Fatalf("same seed, different cooldowns: %v vs %v", a, c)
	}
	cd := a.Sub(time.Unix(1000, 0))
	if cd < 900*time.Millisecond || cd >= 1100*time.Millisecond {
		t.Fatalf("jittered cooldown %v outside [0.9s, 1.1s)", cd)
	}
}

package kvclient_test

// Chaos tests: a real kvserver behind an internal/netchaos proxy, the
// client talking through the proxy. These pin the client's failure
// semantics — pending calls fail fast when the connection dies
// mid-pipeline, op timeouts fire against stalls, CRC catches corruption,
// and the breaker walks a full open → half-open → closed cycle across a
// blackout.

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"tinystm/internal/kvclient"
	"tinystm/internal/kvserver"
	"tinystm/internal/netchaos"
	"tinystm/internal/resilience"
)

// chaosHarness is a kvserver proto listener fronted by a netchaos proxy.
type chaosHarness struct {
	srv   *kvserver.Server
	proxy *netchaos.Proxy
}

func startChaos(t *testing.T, chaos netchaos.Config) *chaosHarness {
	t.Helper()
	srv, err := kvserver.New(kvserver.Config{SpaceWords: 1 << 16, Snapshots: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lis.Close() })
	go srv.ServeProto(lis)
	chaos.Target = lis.Addr().String()
	proxy, err := netchaos.New(chaos)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(proxy.Close)
	return &chaosHarness{srv: srv, proxy: proxy}
}

func (h *chaosHarness) client(t *testing.T, opts kvclient.Options) *kvclient.Client {
	t.Helper()
	c := kvclient.New(h.proxy.Addr(), opts)
	t.Cleanup(c.Close)
	return c
}

// waitRecovered loops an op until the client works again (each failed
// call redials), failing the test if it never does.
func waitRecovered(t *testing.T, c *kvclient.Client) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := c.Put(999, 999); err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("client never recovered")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestResetMidPipelineFailsPendingFast is the pinning test for the
// pending-map fix: kill the connection with a pipeline full of in-flight
// calls and every one of them must return promptly (ErrConn), no caller
// may hang, and the client must recover on redial.
func TestResetMidPipelineFailsPendingFast(t *testing.T) {
	// Responses stall for a long time, so issued calls pile up pending.
	h := startChaos(t, netchaos.Config{Seed: 7, StallEvery: 256, StallFor: 30 * time.Second})
	c := h.client(t, kvclient.Options{})

	const callers = 24
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := c.Put(uint64(i), uint64(i))
			errs <- err
		}(i)
	}
	// Give the pipeline time to fill and hit the stall, then sever every
	// link mid-flight.
	time.Sleep(300 * time.Millisecond)
	h.proxy.KillAll()

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("pending calls hung after the connection died mid-pipeline")
	}
	close(errs)
	connErrs := 0
	for err := range errs {
		if err == nil {
			continue // raced ahead of the stall threshold
		}
		if !errors.Is(err, kvclient.ErrConn) {
			t.Fatalf("pending call failed with %v, want ErrConn", err)
		}
		connErrs++
	}
	if connErrs == 0 {
		t.Fatal("no pending call observed the reset; stall never engaged")
	}
	waitRecovered(t, c)
}

// TestOpTimeoutFiresAgainstStall checks the client-side deadline: a
// stalled response turns into ErrDeadline after OpTimeout, not a hang.
func TestOpTimeoutFiresAgainstStall(t *testing.T) {
	h := startChaos(t, netchaos.Config{Seed: 3, StallEvery: 128, StallFor: 20 * time.Second})
	c := h.client(t, kvclient.Options{OpTimeout: 200 * time.Millisecond})

	sawDeadline := false
	for i := 0; i < 200 && !sawDeadline; i++ {
		start := time.Now()
		_, err := c.Put(uint64(i), 1)
		if errors.Is(err, kvclient.ErrDeadline) {
			if d := time.Since(start); d > 2*time.Second {
				t.Fatalf("deadline error took %v, want ~200ms", d)
			}
			sawDeadline = true
		} else if err != nil && !errors.Is(err, kvclient.ErrConn) {
			t.Fatal(err)
		}
	}
	if !sawDeadline {
		t.Fatal("200 ops through a stalling proxy and no ErrDeadline")
	}
}

// TestCorruptionIsCaughtByCRC runs traffic through a byte-flipping proxy:
// every corruption must surface as an error — ErrConn when the CRC
// refuses the frame, ErrDeadline when the flip hit a length prefix and
// wedged the stream mid-frame (the op timeout then kills the
// connection) — never as silently wrong data.
func TestCorruptionIsCaughtByCRC(t *testing.T) {
	h := startChaos(t, netchaos.Config{Seed: 11, CorruptEvery: 512})
	c := h.client(t, kvclient.Options{OpTimeout: 500 * time.Millisecond})

	sawConn := false
	for i := 0; i < 500; i++ {
		key := uint64(i)
		if _, err := c.Put(key, key*3); err != nil {
			if !errors.Is(err, kvclient.ErrConn) && !errors.Is(err, kvclient.ErrDeadline) {
				t.Fatalf("op failed with %v, want ErrConn or ErrDeadline", err)
			}
			if errors.Is(err, kvclient.ErrConn) {
				sawConn = true
			}
			continue
		}
		val, found, err := c.Get(key)
		if err != nil {
			if !errors.Is(err, kvclient.ErrConn) && !errors.Is(err, kvclient.ErrDeadline) {
				t.Fatalf("Get failed with %v, want ErrConn or ErrDeadline", err)
			}
			if errors.Is(err, kvclient.ErrConn) {
				sawConn = true
			}
			continue
		}
		if !found || val != key*3 {
			t.Fatalf("silent corruption: Get(%d) = (%d, %v), want %d", key, val, found, key*3)
		}
	}
	if !sawConn {
		t.Fatal("byte flips every ~512 bytes never surfaced as a connection error")
	}
	if h.proxy.Stats().Corrupted == 0 {
		t.Fatal("proxy claims it corrupted nothing")
	}
}

// TestRetriesAbsorbResets turns on the retry budget against a resetting
// proxy: individual attempts die mid-pipeline but the calls themselves
// succeed, with the retry count bounded by the budget.
func TestRetriesAbsorbResets(t *testing.T) {
	h := startChaos(t, netchaos.Config{Seed: 5, ResetEvery: 4096})
	budget := resilience.NewRetryBudget(nil)
	c := h.client(t, kvclient.Options{
		Retry: &resilience.RetryConfig{MaxAttempts: 5, BaseBackoff: time.Millisecond, Budget: budget},
	})

	const callers, opsEach = 8, 50
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for w := 0; w < callers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < opsEach; i++ {
				key := uint64(w)<<32 | uint64(i)
				if _, err := c.Put(key, key); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatalf("retries failed to absorb resets: %v", err)
	}
	st := c.ResilienceStats()
	if st.Retries == 0 {
		t.Fatal("resets every ~4KiB and zero retries recorded")
	}
	if bs := budget.Stats(); bs.Allowed != st.Retries {
		t.Fatalf("%d retries but the budget granted %d", st.Retries, bs.Allowed)
	}
	if h.proxy.Stats().Resets == 0 {
		t.Fatal("proxy claims it reset nothing")
	}
}

// TestBreakerFullCycleOverBlackout drives the breaker through a complete
// open → half-open → closed cycle with a real blackout window: the
// backend goes dark (accept-then-reset), the breaker opens and fails
// calls locally, the backend recovers, the probe closes it again.
func TestBreakerFullCycleOverBlackout(t *testing.T) {
	h := startChaos(t, netchaos.Config{Seed: 9})
	c := h.client(t, kvclient.Options{
		Breaker: &resilience.BreakerConfig{FailureThreshold: 3, Cooldown: 100 * time.Millisecond},
	})

	// Healthy baseline.
	if _, err := c.Put(1, 1); err != nil {
		t.Fatal(err)
	}

	h.proxy.SetBlackout(true)
	// Every call now dies (live conn severed, redials reset on accept);
	// after FailureThreshold deaths the breaker opens and calls start
	// failing locally without touching the network.
	sawOpen := false
	for i := 0; i < 200 && !sawOpen; i++ {
		_, err := c.Put(2, 2)
		if errors.Is(err, kvclient.ErrBreakerOpen) {
			sawOpen = true
		} else if err == nil {
			t.Fatal("write succeeded through a blackout")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if !sawOpen {
		t.Fatal("breaker never opened against a blacked-out backend")
	}

	h.proxy.SetBlackout(false)
	// Once the cooldown lapses, one probe redials, succeeds, and closes
	// the breaker.
	waitRecovered(t, c)

	st := c.ResilienceStats()
	if st.Breaker.Opens == 0 || st.Breaker.Probes == 0 || st.Breaker.Closes == 0 {
		t.Fatalf("breaker counters %+v, want a full open/probe/close cycle", st.Breaker)
	}
	if st.BreakerState != "closed" {
		t.Fatalf("breaker state %q after recovery, want closed", st.BreakerState)
	}
	// The cycle must not have poisoned normal operation.
	if val, found, err := c.Get(1); err != nil || !found || val != 1 {
		t.Fatalf("post-cycle Get = (%d, %v, %v), want (1, true)", val, found, err)
	}
}

// TestPartialWritesReassemble runs the full protocol through a 3-byte
// chunker: framing must reassemble regardless of read boundaries.
func TestPartialWritesReassemble(t *testing.T) {
	h := startChaos(t, netchaos.Config{Seed: 2, ChunkBytes: 3})
	c := h.client(t, kvclient.Options{})
	for i := uint64(0); i < 32; i++ {
		if _, err := c.Put(i, i+100); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < 32; i++ {
		val, found, err := c.Get(i)
		if err != nil || !found || val != i+100 {
			t.Fatalf("Get(%d) = (%d, %v, %v) through chunked transport", i, val, found, err)
		}
	}
}

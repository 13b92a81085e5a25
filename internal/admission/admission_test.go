package admission

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestGateBoundsConcurrency(t *testing.T) {
	const width, workers, opsEach = 4, 32, 200
	g := New(width)
	var cur, peak, total atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < opsEach; j++ {
				g.Enter()
				n := cur.Add(1)
				for {
					p := peak.Load()
					if n <= p || peak.CompareAndSwap(p, n) {
						break
					}
				}
				total.Add(1)
				cur.Add(-1)
				g.Exit()
			}
		}()
	}
	wg.Wait()
	if got := peak.Load(); got > width {
		t.Fatalf("observed %d concurrent updaters, gate width %d", got, width)
	}
	if got := total.Load(); got != workers*opsEach {
		t.Fatalf("completed %d ops, want %d", got, workers*opsEach)
	}
	w, inflight, admitted, _ := g.Stats()
	if w != width || inflight != 0 || admitted != workers*opsEach {
		t.Fatalf("Stats = (%d, %d, %d), want (%d, 0, %d)", w, inflight, admitted, width, workers*opsEach)
	}
}

func TestGateFloor(t *testing.T) {
	for _, n := range []int{0, -3} {
		if w, _, _, _ := New(n).Stats(); w != 1 {
			t.Fatalf("New(%d) width = %d, want clamped to 1", n, w)
		}
	}
}

func TestGateWaitedCounter(t *testing.T) {
	g := New(1)
	g.Enter()
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		g.Enter()
		<-release
		g.Exit()
	}()
	// Wait until the second Enter is provably queued.
	deadline := time.Now().Add(2 * time.Second)
	for {
		_, _, _, waited := g.Stats()
		if waited == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("queued Enter never counted as waited")
		}
		time.Sleep(time.Millisecond)
	}
	g.Exit()
	close(release)
	wg.Wait()
	_, _, admitted, waited := g.Stats()
	if admitted != 2 || waited != 1 {
		t.Fatalf("counters = (admitted %d, waited %d), want (2, 1)", admitted, waited)
	}
}

func TestEnterUntilZeroDeadlineIsEnter(t *testing.T) {
	g := New(1)
	if !g.EnterUntil(time.Time{}) {
		t.Fatal("zero deadline must always claim")
	}
	g.Exit()
}

func TestEnterUntilImmediateWhenFree(t *testing.T) {
	g := New(2)
	if !g.EnterUntil(time.Now().Add(time.Hour)) {
		t.Fatal("free slot with live deadline denied")
	}
	if g.Expired() != 0 {
		t.Fatal("successful EnterUntil counted as expired")
	}
	g.Exit()
}

func TestEnterUntilExpiresAtFullGate(t *testing.T) {
	g := New(1)
	g.Enter() // occupy the only slot
	start := time.Now()
	if g.EnterUntil(start.Add(50 * time.Millisecond)) {
		t.Fatal("full gate granted a slot inside the deadline")
	}
	if d := time.Since(start); d < 50*time.Millisecond || d > 2*time.Second {
		t.Fatalf("EnterUntil returned after %v, want ~50ms", d)
	}
	if g.Expired() != 1 {
		t.Fatalf("expired = %d, want 1", g.Expired())
	}
	_, _, _, waited := g.Stats()
	if waited != 1 {
		t.Fatalf("waited = %d, want 1 (a timed-out Enter still queued)", waited)
	}
	g.Exit()
	// The gate must be fully usable afterwards: the expired waiter left
	// no claim behind.
	if !g.EnterUntil(time.Now().Add(time.Second)) {
		t.Fatal("gate unusable after an expired EnterUntil")
	}
	g.Exit()
}

func TestEnterUntilAlreadyExpired(t *testing.T) {
	g := New(1)
	// Even an EMPTY gate refuses an expired request: running it is waste.
	if g.EnterUntil(time.Now().Add(-time.Second)) {
		t.Fatal("past deadline granted a slot at an empty gate")
	}
	if g.Expired() != 1 {
		t.Fatalf("expired = %d, want 1", g.Expired())
	}
}

// TestEnterUntilPassesTheBaton pins the lost-wakeup hazard: with one
// slot, one expiring waiter and one patient waiter, the Exit that lands
// on the expiring waiter must be handed on, not swallowed.
func TestEnterUntilPassesTheBaton(t *testing.T) {
	g := New(1)
	g.Enter()

	patient := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		if !g.EnterUntil(time.Time{}) {
			t.Error("patient waiter denied")
			return
		}
		close(patient)
		g.Exit()
	}()
	go func() {
		defer wg.Done()
		// Expires while queued; must not strand the patient waiter.
		if g.EnterUntil(time.Now().Add(20 * time.Millisecond)) {
			t.Error("expirer claimed a slot the test never freed in time")
			g.Exit()
		}
	}()

	// Let both goroutines queue AND the expirer give up, then free the
	// slot: the remaining signal must reach the patient waiter.
	deadline := time.Now().Add(2 * time.Second)
	for {
		_, _, _, waited := g.Stats()
		if waited == 2 && g.Expired() == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("waiters never queued / expirer never expired")
		}
		time.Sleep(time.Millisecond)
	}
	g.Exit()
	select {
	case <-patient:
	case <-time.After(5 * time.Second):
		t.Fatal("patient waiter starved after expiring waiter left")
	}
	wg.Wait()
}

// TestTryEnterNeverWaits: at a full gate TryEnter comes straight back with
// nothing claimed and nothing counted — queueing, and its statistics, are
// EnterUntil's — a spent deadline is refused even at an empty gate, and an
// admitted TryEnter is an admission like any other, minus the wait.
func TestTryEnterNeverWaits(t *testing.T) {
	g := New(1)
	g.Enter()
	for _, dl := range []time.Time{{}, time.Now().Add(time.Hour)} {
		if admitted, expired := g.TryEnter(dl); admitted || expired {
			t.Fatalf("TryEnter(%v) at a full gate = (%v, %v), want neither", dl, admitted, expired)
		}
	}
	if _, inflight, admitted, waited := g.Stats(); inflight != 1 || admitted != 1 || waited != 0 || g.Expired() != 0 {
		t.Fatalf("a refused TryEnter moved the counters: inflight %d admitted %d waited %d expired %d",
			inflight, admitted, waited, g.Expired())
	}
	if admitted, expired := g.TryEnter(time.Now().Add(-time.Millisecond)); admitted || !expired {
		t.Fatalf("TryEnter past its deadline at a full gate = (%v, %v), want expired", admitted, expired)
	}
	g.Exit()
	if admitted, expired := g.TryEnter(time.Now().Add(-time.Millisecond)); admitted || !expired {
		t.Fatalf("TryEnter past its deadline at an EMPTY gate = (%v, %v), want expired", admitted, expired)
	}
	if g.Expired() != 2 {
		t.Fatalf("expired = %d, want 2", g.Expired())
	}
	if admitted, expired := g.TryEnter(time.Time{}); !admitted || expired {
		t.Fatalf("TryEnter at a free gate = (%v, %v), want admitted", admitted, expired)
	}
	if _, inflight, admitted, waited := g.Stats(); inflight != 1 || admitted != 2 || waited != 0 {
		t.Fatalf("after an admitted TryEnter: inflight %d admitted %d waited %d, want 1 2 0", inflight, admitted, waited)
	}
	g.Exit() // pairs with the TryEnter; a second Exit would panic
	if _, inflight, _, _ := g.Stats(); inflight != 0 {
		t.Fatalf("inflight = %d after the paired Exit", inflight)
	}
}

// TestTryEnterHammer mixes the three ways in at once on a narrow gate:
// whoever is inside was let in at a moment the gate had room, so the
// holders never outnumber the width, every grant is counted once, and
// every slot comes back.
func TestTryEnterHammer(t *testing.T) {
	const width, workers, opsEach = 4, 12, 400
	g := New(width)
	var cur, peak atomic.Int64
	var granted, tryGranted, queued atomic.Uint64
	inside := func() {
		n := cur.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		runtime.Gosched() // hold the slot a moment: the gate fills
		granted.Add(1)
		cur.Add(-1)
		g.Exit()
	}
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < opsEach; j++ {
				switch (i + j) % 3 {
				case 0:
					if admitted, _ := g.TryEnter(time.Time{}); admitted {
						tryGranted.Add(1)
						inside()
					}
				case 1:
					queued.Add(1)
					g.Enter()
					inside()
				default:
					queued.Add(1)
					if g.EnterUntil(time.Now().Add(200 * time.Microsecond)) {
						inside()
					}
				}
			}
		}(i)
	}
	wg.Wait()
	if got := peak.Load(); got > width {
		t.Fatalf("%d updaters inside at once through a gate %d wide", got, width)
	}
	_, inflight, admitted, waited := g.Stats()
	if inflight != 0 || admitted != granted.Load() {
		t.Fatalf("inflight %d, admitted %d for %d grants", inflight, admitted, granted.Load())
	}
	if waited > queued.Load() {
		t.Fatalf("waited = %d with only %d Enter/EnterUntil calls: a TryEnter was counted as a wait", waited, queued.Load())
	}
	if tryGranted.Load() == 0 {
		t.Fatal("no TryEnter was ever admitted: nothing was tested")
	}
	t.Logf("%d grants, %d through TryEnter, %d waited at the door", admitted, tryGranted.Load(), waited)
}

// Package admission bounds the number of concurrently RUNNING update
// transactions at the server door — proactive contention management.
//
// The STM resolves conflicts after they happen: a transaction runs,
// collides with a lock, aborts and waits for that lock before it retries.
// Past a workload-dependent point that is pure waste — admitting more
// concurrent updaters REDUCES committed throughput, because every
// admitted transaction mostly generates aborts for the others (the
// cost-of-concurrency observation, here applied before the conflict
// instead of after it). The Gate is a width-limited token bucket in front
// of the update path: at most Width updaters run at once and the rest
// queue at the door, where they cost nothing. The width is fixed at New;
// nothing walks it while the gate runs.
//
// Read-only transactions are never gated: snapshot reads are wait-free
// and classic reads conflict only with writers, so bounding writers
// already protects them.
package admission

import (
	"sync"
	"time"
)

// Gate is the token bucket. The zero value is not usable; call New.
type Gate struct {
	//stm:allow-atomic gate state lives outside any transaction: it decides whether a transaction may START
	mu       sync.Mutex
	slot     *sync.Cond
	width    int // token count, fixed at New; floor 1, never starves
	inflight int
	admitted uint64 // total Enters granted
	waited   uint64 // Enters that had to block first
	expired  uint64 // EnterUntils that gave up at their deadline
}

// New builds a Gate admitting at most width concurrent updaters
// (width < 1 is clamped to 1).
func New(width int) *Gate {
	if width < 1 {
		width = 1
	}
	g := &Gate{width: width}
	g.slot = sync.NewCond(&g.mu)
	return g
}

// Enter blocks until an update slot is free, then claims it. Every Enter
// must be paired with exactly one Exit.
func (g *Gate) Enter() {
	g.mu.Lock()
	if g.inflight >= g.width {
		g.waited++
		for g.inflight >= g.width {
			g.slot.Wait()
		}
	}
	g.inflight++
	g.admitted++
	g.mu.Unlock()
}

// EnterUntil is Enter with a deadline: it claims a slot like Enter, but
// gives up and returns false — WITHOUT claiming — once deadline passes.
// A zero deadline waits forever (plain Enter). This is how a
// deadline-bearing request sheds at the gate instead of occupying queue
// space for an answer nobody will read; timed-out Enters still count in
// the waited statistic (they did queue), expired in the expired one.
func (g *Gate) EnterUntil(deadline time.Time) bool {
	if deadline.IsZero() {
		g.Enter()
		return true
	}
	g.mu.Lock()
	if !time.Now().Before(deadline) {
		// Expired on arrival: never claim, even at an empty gate.
		g.expired++
		g.mu.Unlock()
		return false
	}
	if g.inflight >= g.width {
		g.waited++
		// sync.Cond has no timed wait: an AfterFunc broadcast wakes every
		// waiter at the deadline; ours notices it expired and leaves, the
		// rest re-check inflight and go back to sleep. The empty
		// lock/unlock orders the broadcast after our Wait, closing the
		// window where the timer fires between the check and the sleep.
		t := time.AfterFunc(time.Until(deadline), func() {
			g.mu.Lock()
			//lint:ignore SA2001 empty critical section orders the broadcast after Wait
			g.mu.Unlock()
			g.slot.Broadcast()
		})
		for g.inflight >= g.width {
			if !time.Now().Before(deadline) {
				g.expired++
				g.mu.Unlock()
				t.Stop()
				// Pass the baton: an Exit may have signaled exactly this
				// goroutine; hand the wakeup to a live waiter.
				g.slot.Signal()
				return false
			}
			g.slot.Wait()
		}
		t.Stop()
		if !time.Now().Before(deadline) {
			// Woken to a free slot, but too late: the client has already
			// given up on this request, so running it is pure waste.
			// Refuse, and pass the wakeup on to a live waiter.
			g.expired++
			g.mu.Unlock()
			g.slot.Signal()
			return false
		}
	}
	g.inflight++
	g.admitted++
	g.mu.Unlock()
	return true
}

// TryEnter is EnterUntil for a caller that must not wait — a goroutine that
// serves other requests too. It never blocks: it claims a slot and returns
// admitted when one is free; it refuses like EnterUntil does on arrival
// (expired, counted in Expired) when a non-zero deadline has already
// passed; and with the gate full it returns neither, having counted
// nothing — the caller hands the request to a goroutine that can queue in
// EnterUntil, which does the counting. An admitted TryEnter pairs with one
// Exit and counts in admitted, never in waited.
func (g *Gate) TryEnter(deadline time.Time) (admitted, expired bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if !deadline.IsZero() && !time.Now().Before(deadline) {
		g.expired++
		return false, true
	}
	if g.inflight >= g.width {
		return false, false
	}
	g.inflight++
	g.admitted++
	return true, false
}

// Exit releases a slot claimed by Enter.
func (g *Gate) Exit() {
	g.mu.Lock()
	if g.inflight <= 0 {
		g.mu.Unlock()
		panic("admission: Exit without matching Enter")
	}
	g.inflight--
	g.mu.Unlock()
	// Signal outside the lock: the woken waiter re-checks under mu anyway,
	// and a narrower critical section keeps the hot path short.
	g.slot.Signal()
}

// Stats returns the gate's counters: the width, how many
// updaters hold slots right now, how many Enters were granted in total,
// and how many of those had to wait at the door.
func (g *Gate) Stats() (width, inflight int, admitted, waited uint64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.width, g.inflight, g.admitted, g.waited
}

// Expired returns how many EnterUntil calls gave up at their deadline.
func (g *Gate) Expired() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.expired
}

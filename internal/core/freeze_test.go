package core

import (
	"sync"
	"testing"
	"testing/quick"
	"time"

	"tinystm/internal/obs"
)

func TestConcurrentFreezeInitiatorsSerialize(t *testing.T) {
	// Multiple goroutines freezing simultaneously must serialize without
	// deadlock and the TM must end up unfrozen.
	tm, _ := newTestTM(t, WriteBack, nil)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				tm.fz.freeze()
				tm.fz.unfreeze()
			}
		}()
	}
	wg.Wait()
	if tm.Frozen() {
		t.Fatal("TM left frozen")
	}
	// Still fully operational.
	tx := tm.NewTx()
	tm.Atomic(tx, func(tx *Tx) { _ = tx.Alloc(1) })
}

func TestFreezeWaitsForActiveTransactions(t *testing.T) {
	tm, _ := newTestTM(t, WriteBack, nil)
	tx := tm.NewTx()
	var a uint64
	tm.Atomic(tx, func(tx *Tx) { a = tx.Alloc(1) })

	// Hold an active transaction; a freeze must block until it ends.
	tx.Begin(false)
	if !attempt(func() { tx.Store(a, 1) }) {
		t.Fatal("unexpected abort")
	}
	frozen := make(chan struct{})
	go func() {
		tm.fz.freeze()
		close(frozen)
	}()
	select {
	case <-frozen:
		t.Fatal("freeze completed while a transaction was active")
	default:
	}
	if !tx.Commit() {
		t.Fatal("commit failed")
	}
	<-frozen // must complete now
	tm.fz.unfreeze()
}

// TestQuiesceTimesEveryFreeze: Quiesce is the TM's one barrier, so each
// Reconfigure, each clock roll-over and each direct call lands once in the
// FreezeNs histogram, and a fn that panics still lowers the barrier.
func TestQuiesceTimesEveryFreeze(t *testing.T) {
	tm, _ := newTestTM(t, WriteBack, func(c *Config) { c.MaxClock = 32 })
	o := obs.NewTMObs(nil)
	tm.SetObs(o)
	tx := tm.NewTx()
	defer tx.Release()
	var a uint64
	tm.Atomic(tx, func(tx *Tx) { a = tx.Alloc(1) })
	for i := 0; i < 100; i++ {
		tm.Atomic(tx, func(tx *Tx) { tx.Store(a, tx.Load(a)+1) })
	}
	if err := tm.Reconfigure(Params{Locks: 1 << 8, Hier: 1}); err != nil {
		t.Fatal(err)
	}
	var ran bool
	tm.Quiesce(func() { ran = !tm.Frozen() })
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Fatalf("recovered %v, want the fn's panic", r)
			}
		}()
		tm.Quiesce(func() { panic("boom") })
	}()
	if ran || tm.Frozen() {
		t.Fatalf("fn ran unfrozen: %v; TM left frozen: %v", ran, tm.Frozen())
	}
	st := tm.Stats()
	if st.RollOvers == 0 {
		t.Fatal("no roll-over under MaxClock 32")
	}
	if got, want := o.FreezeNs.Snapshot().Count, st.RollOvers+st.Reconfigs+2; got != want {
		t.Fatalf("%d freezes timed, want %d: %d roll-overs, %d reconfigurations and two direct calls", got, want, st.RollOvers, st.Reconfigs)
	}
	tm.Atomic(tx, func(tx *Tx) { tx.Store(a, 0) }) // still operational
}

// TestQuiesceTimesTheStallNotTheWait: a second initiator that waits
// while the first holds the barrier for 2h times only its own freeze, so
// of the two observations exactly one is over h/2. Timed from before
// freeze, the waiter's would read about 2h too.
func TestQuiesceTimesTheStallNotTheWait(t *testing.T) {
	const h = 20 * time.Millisecond
	tm, _ := newTestTM(t, WriteBack, nil)
	o := obs.NewTMObs(nil)
	tm.SetObs(o)
	holding, waiting := make(chan struct{}), make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tm.Quiesce(func() {
			close(holding)
			<-waiting
			time.Sleep(2 * h)
		})
	}()
	<-holding
	second := make(chan struct{})
	go func() {
		defer close(second)
		close(waiting)
		tm.Quiesce(func() {})
	}()
	<-done
	<-second
	snap := o.FreezeNs.Snapshot()
	if long := snap.Count - snap.CumulativeLE(uint64(h)/2); snap.Count != 2 || long != 1 {
		t.Fatalf("%d freezes timed, %d of them over %v, want 2 and 1: the waiter's wait was timed", snap.Count, long, h/2)
	}
}

func TestReconfigureWhileIdleIsImmediate(t *testing.T) {
	tm, _ := newTestTM(t, WriteBack, nil)
	for i := 0; i < 50; i++ {
		p := Params{Locks: 1 << uint(8+i%4), Shifts: uint(i % 3), Hier: 1 << uint(i%3)}
		if err := tm.Reconfigure(p); err != nil {
			t.Fatalf("Reconfigure %d: %v", i, err)
		}
		if tm.Params() != p {
			t.Fatalf("params = %+v, want %+v", tm.Params(), p)
		}
	}
}

func TestGeometryMappingQuick(t *testing.T) {
	// Properties: lock and hierarchical indices are always in range, and
	// the shift groups exactly 2^shifts consecutive words per lock.
	f := func(addr uint64, locksExp, shiftRaw, hierExp uint8) bool {
		le := int(locksExp%16) + 4 // 2^4 .. 2^19
		he := int(hierExp) % 5     // 1 .. 16
		sh := uint(shiftRaw % 8)
		if he > le {
			he = le
		}
		g := newGeometry(Params{Locks: 1 << le, Shifts: sh, Hier: 1 << he})
		li := g.lockIndex(addr)
		if li > g.lockMask {
			return false
		}
		if g.hierEnabled() {
			if hi := g.hierIndex(addr); hi > g.hierMask {
				return false
			}
			// Same lock implies same counter.
			other := addr ^ 1<<(uint(le)+sh+3) // differs above the lock bits
			if g.lockIndex(addr) == g.lockIndex(other) &&
				g.hierIndex(addr) != g.hierIndex(other) {
				return false
			}
		}
		// All addresses within one 2^shifts-aligned group share a lock.
		base := addr &^ ((1 << sh) - 1)
		for w := uint64(0); w < 1<<sh; w++ {
			if g.lockIndex(base+w) != g.lockIndex(base) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDoubleFreePanicsInsideTx(t *testing.T) {
	tm, _ := newTestTM(t, WriteBack, nil)
	tx := tm.NewTx()
	var a uint64
	tm.Atomic(tx, func(tx *Tx) { a = tx.Alloc(2) })
	defer func() {
		if recover() == nil {
			t.Error("double free did not panic")
		}
	}()
	tm.Atomic(tx, func(tx *Tx) {
		tx.Free(a, 2)
		tx.Free(a, 2)
	})
}

func TestReadOnlyFreeUpgrades(t *testing.T) {
	tm, _ := newTestTM(t, WriteBack, nil)
	tx := tm.NewTx()
	var a uint64
	tm.Atomic(tx, func(tx *Tx) { a = tx.Alloc(2) })
	runs := 0
	tm.AtomicRO(tx, func(tx *Tx) {
		//stm:allow-effect deliberate retry counter: the test asserts the upgrade re-runs the body
		runs++
		//stm:allow-write deliberate: Free in an RO body is exactly the upgrade under test
		tx.Free(a, 2)
	})
	if runs != 2 {
		t.Errorf("runs = %d, want 2 (upgrade retry)", runs)
	}
}

func TestAllocOnlyTransactionCommits(t *testing.T) {
	// A transaction that only allocates has no write set; it must commit
	// through the read-only path and keep its allocation.
	tm, sp := newTestTM(t, WriteBack, nil)
	tx := tm.NewTx()
	live := sp.LiveWords()
	var a uint64
	tm.Atomic(tx, func(tx *Tx) { a = tx.Alloc(4) })
	if a == 0 {
		t.Fatal("nil allocation")
	}
	if got := sp.LiveWords(); got != live+4 {
		t.Errorf("live = %d, want %d", got, live+4)
	}
	if tx.LastCommitTS() != 0 {
		t.Errorf("alloc-only commit took a timestamp: %d", tx.LastCommitTS())
	}
}

package core

import (
	"sync"
	"testing"
	"time"
)

func TestClockRollOverSingleThread(t *testing.T) {
	designsAndClock(t, func(t *testing.T, d Design) {
		tm, _ := newTestTM(t, d, func(c *Config) { c.MaxClock = 64 })
		tx := tm.NewTx()
		var a uint64
		tm.Atomic(tx, func(tx *Tx) { a = tx.Alloc(1) })
		// Each committing update bumps the clock; far more commits than
		// MaxClock forces several roll-overs.
		for i := 0; i < 500; i++ {
			tm.Atomic(tx, func(tx *Tx) { tx.Store(a, tx.Load(a)+1) })
		}
		tm.Atomic(tx, func(tx *Tx) {
			if got := tx.Load(a); got != 500 {
				t.Errorf("counter = %d, want 500", got)
			}
		})
		if tm.Stats().RollOvers == 0 {
			t.Error("expected at least one roll-over")
		}
		if tm.ClockValue() >= 64 {
			t.Errorf("clock = %d, want < MaxClock", tm.ClockValue())
		}
	})
}

func TestClockRollOverConcurrent(t *testing.T) {
	designsAndClock(t, func(t *testing.T, d Design) {
		tm, _ := newTestTM(t, d, func(c *Config) { c.MaxClock = 32 })
		runBankStress(t, tm, 4, 300)
		if tm.Stats().RollOvers == 0 {
			t.Error("expected roll-overs under tiny MaxClock")
		}
	})
}

func TestRollOverResetsVersions(t *testing.T) {
	tm, _ := newTestTM(t, WriteBack, func(c *Config) { c.MaxClock = 16 })
	tx := tm.NewTx()
	var a uint64
	tm.Atomic(tx, func(tx *Tx) { a = tx.Alloc(1) })
	for i := 0; i < 40; i++ {
		tm.Atomic(tx, func(tx *Tx) { tx.Store(a, uint64(i)) })
	}
	g := tm.geo.Load()
	// After roll-overs every version must be below MaxClock.
	for li := range g.locks {
		lw := g.loadLock(uint64(li))
		if isOwned(lw) {
			t.Fatalf("lock %d owned at quiescence", li)
		}
		if versionWB(lw) >= 16 {
			t.Fatalf("lock %d version %d not reset", li, versionWB(lw))
		}
	}
}

func TestReconfigureChangesParams(t *testing.T) {
	tm, _ := newTestTM(t, WriteBack, nil)
	want := Params{Locks: 1 << 12, Shifts: 3, Hier: 16}
	if err := tm.Reconfigure(want); err != nil {
		t.Fatalf("Reconfigure: %v", err)
	}
	if got := tm.Params(); got != want {
		t.Errorf("Params = %+v, want %+v", got, want)
	}
	if tm.Stats().Reconfigs != 1 {
		t.Errorf("reconfigs = %d, want 1", tm.Stats().Reconfigs)
	}
}

// Reconfigure keeps the clock and its epoch: the first commit after a
// move takes the timestamp after the last one before it.
func TestReconfigureKeepsClock(t *testing.T) {
	bothDesigns(t, func(t *testing.T, d Design) {
		tm, _ := newTestTM(t, d, nil)
		tx := tm.NewTx()
		var a uint64
		tm.Atomic(tx, func(tx *Tx) { a = tx.Alloc(1); tx.Store(a, 0) })
		tm.Atomic(tx, func(tx *Tx) { tx.Store(a, 1) })
		last, epoch, clock := tx.LastCommitTS(), tm.ClockEpoch(), tm.ClockValue()
		if err := tm.Reconfigure(Params{Locks: 1 << 8, Shifts: 0, Hier: 1}); err != nil {
			t.Fatalf("Reconfigure: %v", err)
		}
		if got := tm.ClockEpoch(); got != epoch {
			t.Errorf("clock epoch = %d after the move, want %d", got, epoch)
		}
		if got := tm.ClockValue(); got != clock {
			t.Errorf("clock = %d after the move, want %d", got, clock)
		}
		tm.Atomic(tx, func(tx *Tx) { tx.Store(a, 2) })
		if got := tx.LastCommitTS(); got != last+1 {
			t.Errorf("post-reconfigure ts = %d, want %d", got, last+1)
		}
	})
}

func TestReconfigureRejectsBadParams(t *testing.T) {
	tm, _ := newTestTM(t, WriteBack, nil)
	for _, p := range []Params{
		{Locks: 3, Shifts: 0, Hier: 1},
		{Locks: 1 << 10, Shifts: 0, Hier: 3},
		{Locks: 4, Shifts: 0, Hier: 8},
		{Locks: 1 << 10, Shifts: 60, Hier: 1},
	} {
		if err := tm.Reconfigure(p); err == nil {
			t.Errorf("Reconfigure(%+v) accepted", p)
		}
	}
}

func TestReconfigureUnderLoad(t *testing.T) {
	// Reconfigure repeatedly while workers hammer the bank; the invariant
	// must survive geometry changes and transactions must keep committing.
	designsAndClock(t, func(t *testing.T, d Design) {
		tm, _ := newTestTM(t, d, nil)
		stop := make(chan struct{})
		// ready closes after the first reconfiguration: on a one-core host
		// the whole iteration-bounded stress can otherwise finish before
		// the reconfigure goroutine is ever scheduled, leaving Reconfigs
		// at zero and the test vacuous. The deferred Once also fires on
		// the error path, so a failed first Reconfigure reports instead of
		// hanging the main goroutine on <-ready.
		ready := make(chan struct{})
		var readyOnce sync.Once
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer readyOnce.Do(func() { close(ready) })
			params := []Params{
				{Locks: 1 << 6, Shifts: 0, Hier: 1},
				{Locks: 1 << 12, Shifts: 2, Hier: 4},
				{Locks: 1 << 8, Shifts: 4, Hier: 16},
				{Locks: 1 << 10, Shifts: 1, Hier: 64},
			}
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := tm.Reconfigure(params[i%len(params)]); err != nil {
					t.Errorf("Reconfigure: %v", err)
					return
				}
				if i == 0 {
					readyOnce.Do(func() { close(ready) })
				}
				i++
			}
		}()
		<-ready
		runBankStress(t, tm, 3, 300)
		close(stop)
		wg.Wait()
		if tm.Stats().Reconfigs == 0 {
			t.Error("no reconfigurations happened")
		}
	})
}

func TestFreezerBlocksNewTransactions(t *testing.T) {
	tm, _ := newTestTM(t, WriteBack, nil)
	tm.fz.freeze()
	if !tm.Frozen() {
		t.Fatal("not frozen")
	}
	started := make(chan struct{})
	committed := make(chan struct{})
	go func() {
		tx := tm.NewTx()
		close(started)
		tm.Atomic(tx, func(tx *Tx) {
			a := tx.Alloc(1)
			tx.Store(a, 1)
		})
		close(committed)
	}()
	<-started
	time.Sleep(20 * time.Millisecond) // let the worker reach the barrier
	select {
	case <-committed:
		t.Fatal("transaction committed while frozen")
	default:
	}
	tm.fz.unfreeze()
	<-committed
}

package core

import (
	"runtime"
	"testing"

	"tinystm/internal/mem"
	"tinystm/internal/mvcc"
	"tinystm/internal/txn"
)

// newTestTM builds a small TM over a fresh space. Callers pass overrides.
func newTestTM(t testing.TB, d Design, over func(*Config)) (*TM, *mem.Space) {
	t.Helper()
	sp := mem.NewSpace(1 << 20)
	cfg := Config{Space: sp, Locks: 1 << 10, Design: d}
	if over != nil {
		over(&cfg)
	}
	tm, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return tm, sp
}

// withSidecarShards rebuilds tm's sidecar with n shards instead of
// mvcc's default, keeping its budget; call it before tm's first
// transaction. Few shards put many stripes' versions under one budget.
func withSidecarShards(tm *TM, n int) *TM {
	tm.mvcc = mvcc.New(mvcc.Config{Words: tm.space.Cap(), Shards: n, Budget: tm.mvcc.Budget()})
	return tm
}

// attempt runs fn inside an already-begun transaction, reporting false if
// it aborted via the STM sentinel (white-box test helper).
func attempt(fn func()) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, is := r.(abortSignal); is {
				ok = false
				return
			}
			panic(r)
		}
	}()
	fn()
	return true
}

func bothDesigns(t *testing.T, f func(t *testing.T, d Design)) {
	t.Helper()
	for _, d := range []Design{WriteBack, WriteThrough} {
		d := d
		t.Run(d.String(), func(t *testing.T) { f(t, d) })
	}
}

// clockName names the commit clock (the shared fetch-and-increment
// counter) in subtest paths.
const clockName = "fetchinc"

// designsAndClock is bothDesigns with each design's run nested under a
// subtest named for the commit clock. The suites that used to run over
// several clock strategies keep their <design>/fetchinc names this way, so
// their results line up with older runs.
func designsAndClock(t *testing.T, f func(t *testing.T, d Design)) {
	t.Helper()
	bothDesigns(t, func(t *testing.T, d Design) {
		t.Run(clockName, func(t *testing.T) { f(t, d) })
	})
}

func TestConfigValidation(t *testing.T) {
	sp := mem.NewSpace(16)
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"defaults", Config{Space: sp}, true},
		{"nil space", Config{}, false},
		{"non-pow2 locks", Config{Space: sp, Locks: 3}, false},
		{"non-pow2 hier", Config{Space: sp, Hier: 3}, false},
		{"hier too big", Config{Space: sp, Hier: 512}, false},
		{"hier gt locks", Config{Space: sp, Locks: 4, Hier: 8}, false},
		{"shift too big", Config{Space: sp, Shifts: 40}, false},
		{"bad design", Config{Space: sp, Design: Design(7)}, false},
		{"tiny maxclock", Config{Space: sp, MaxClock: 1}, false},
		{"huge maxclock wt", Config{Space: sp, Design: WriteThrough, MaxClock: 1 << 62}, false},
		{"valid full", Config{Space: sp, Locks: 1 << 8, Shifts: 2, Hier: 16, Design: WriteThrough}, true},
	}
	for _, c := range cases {
		_, err := New(c.cfg)
		if (err == nil) != c.ok {
			t.Errorf("%s: err = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestAtomicCommitPublishes(t *testing.T) {
	bothDesigns(t, func(t *testing.T, d Design) {
		tm, sp := newTestTM(t, d, nil)
		tx := tm.NewTx()
		var a uint64
		tm.Atomic(tx, func(tx *Tx) {
			a = tx.Alloc(2)
			tx.Store(a, 41)
			tx.Store(a+1, 42)
		})
		if got := sp.Load(mem.Addr(a)); got != 41 {
			t.Errorf("word 0 = %d, want 41", got)
		}
		if got := sp.Load(mem.Addr(a + 1)); got != 42 {
			t.Errorf("word 1 = %d, want 42", got)
		}
	})
}

func TestAtomicReadsOwnWrites(t *testing.T) {
	bothDesigns(t, func(t *testing.T, d Design) {
		tm, _ := newTestTM(t, d, nil)
		tx := tm.NewTx()
		tm.Atomic(tx, func(tx *Tx) {
			a := tx.Alloc(1)
			tx.Store(a, 7)
			if got := tx.Load(a); got != 7 {
				t.Errorf("read-after-write = %d, want 7", got)
			}
			tx.Store(a, 8)
			if got := tx.Load(a); got != 8 {
				t.Errorf("write-after-write read = %d, want 8", got)
			}
		})
	})
}

func TestReadAfterWriteSameLockDifferentAddr(t *testing.T) {
	// Force both addresses onto one lock with a high shift: the write-back
	// chain must serve the written address and memory the other.
	bothDesigns(t, func(t *testing.T, d Design) {
		tm, _ := newTestTM(t, d, func(c *Config) { c.Shifts = 8 })
		tx := tm.NewTx()
		var a uint64
		tm.Atomic(tx, func(tx *Tx) {
			a = tx.Alloc(4)
			tx.Store(a, 1)
			tx.Store(a+1, 2)
			tx.Store(a+2, 3)
		})
		tm.Atomic(tx, func(tx *Tx) {
			tx.Store(a, 10) // lock stripe now owned
			if got := tx.Load(a + 1); got != 2 {
				t.Errorf("unwritten word under owned lock = %d, want 2", got)
			}
			tx.Store(a+2, 30)
			if got := tx.Load(a + 2); got != 30 {
				t.Errorf("chained write read = %d, want 30", got)
			}
			if got := tx.Load(a); got != 10 {
				t.Errorf("chain head read = %d, want 10", got)
			}
		})
		tm.Atomic(tx, func(tx *Tx) {
			if tx.Load(a) != 10 || tx.Load(a+1) != 2 || tx.Load(a+2) != 30 {
				t.Error("committed chained values wrong")
			}
		})
	})
}

func TestAbortDiscardsWrites(t *testing.T) {
	bothDesigns(t, func(t *testing.T, d Design) {
		tm, sp := newTestTM(t, d, nil)
		tx := tm.NewTx()
		var a uint64
		tm.Atomic(tx, func(tx *Tx) {
			a = tx.Alloc(1)
			tx.Store(a, 100)
		})
		// Manually begin, write, roll back.
		tx.Begin(false)
		ok := attempt(func() {
			tx.Store(a, 999)
			if tx.Load(a) != 999 {
				t.Error("own write invisible")
			}
		})
		if !ok {
			t.Fatal("unexpected abort")
		}
		tx.rollback(txn.AbortExplicit)
		if got := sp.Load(mem.Addr(a)); got != 100 {
			t.Errorf("after abort memory = %d, want 100 restored", got)
		}
		// The lock must be released: a fresh transaction can write.
		tm.Atomic(tx, func(tx *Tx) { tx.Store(a, 101) })
		if got := sp.Load(mem.Addr(a)); got != 101 {
			t.Errorf("post-abort write = %d, want 101", got)
		}
	})
}

func TestWriteThroughAbortBumpsIncarnation(t *testing.T) {
	tm, _ := newTestTM(t, WriteThrough, nil)
	tx := tm.NewTx()
	var a uint64
	tm.Atomic(tx, func(tx *Tx) { a = tx.Alloc(1); tx.Store(a, 1) })
	g := tm.geo.Load()
	li := g.lockIndex(a)
	before := g.loadLock(li)
	tx.Begin(false)
	if !attempt(func() { tx.Store(a, 2) }) {
		t.Fatal("unexpected abort")
	}
	tx.rollback(txn.AbortExplicit)
	after := g.loadLock(li)
	if isOwned(after) {
		t.Fatal("lock still owned after abort")
	}
	if versionWT(after) != versionWT(before) {
		t.Errorf("version changed on abort: %d -> %d", versionWT(before), versionWT(after))
	}
	if incarnationWT(after) != incarnationWT(before)+1 {
		t.Errorf("incarnation = %d, want %d", incarnationWT(after), incarnationWT(before)+1)
	}
}

func TestIncarnationOverflowTakesFreshVersion(t *testing.T) {
	tm, _ := newTestTM(t, WriteThrough, nil)
	tx := tm.NewTx()
	var a uint64
	tm.Atomic(tx, func(tx *Tx) { a = tx.Alloc(1); tx.Store(a, 1) })
	g := tm.geo.Load()
	li := g.lockIndex(a)
	// Abort 2^incBits times to overflow the incarnation counter.
	for i := 0; i <= int(incMask); i++ {
		tx.Begin(false)
		if !attempt(func() { tx.Store(a, 2) }) {
			t.Fatal("unexpected abort")
		}
		tx.rollback(txn.AbortExplicit)
	}
	after := g.loadLock(li)
	if incarnationWT(after) != 0 {
		t.Errorf("incarnation after overflow = %d, want 0", incarnationWT(after))
	}
	if versionWT(after) < 2 {
		t.Errorf("version after overflow = %d, want fresh (>= 2)", versionWT(after))
	}
}

func TestAtomicRetriesOnConflict(t *testing.T) {
	bothDesigns(t, func(t *testing.T, d Design) {
		tm, _ := newTestTM(t, d, nil)
		t1, t2 := tm.NewTx(), tm.NewTx()
		var a uint64
		tm.Atomic(t1, func(tx *Tx) { a = tx.Alloc(1) })

		// t2 holds the lock; t1's Atomic must retry and eventually win
		// once t2 commits.
		t2.Begin(false)
		if !attempt(func() { t2.Store(a, 5) }) {
			t.Fatal("unexpected abort")
		}
		tries := 0
		done := make(chan struct{})
		go func() {
			tm.Atomic(t1, func(tx *Tx) {
				//stm:allow-effect deliberate attempt counter: the test measures conflict retries
				tries++
				tx.Store(a, tx.Load(a)+1)
			})
			close(done)
		}()
		// Wait until the worker has hit the conflict at least once, then
		// release the lock by committing t2.
		for t1.TxStats().Aborts == 0 {
			runtime.Gosched()
		}
		if !t2.Commit() {
			t.Fatal("t2 commit failed")
		}
		<-done
		if tries < 2 {
			t.Errorf("expected at least one retry, got %d attempts", tries)
		}
		tm.Atomic(t1, func(tx *Tx) {
			if got := tx.Load(a); got != 6 {
				t.Errorf("final value = %d, want 6", got)
			}
		})
	})
}

func TestReadOnlyUpgrades(t *testing.T) {
	tm, _ := newTestTM(t, WriteBack, nil)
	tx := tm.NewTx()
	var a uint64
	tm.Atomic(tx, func(tx *Tx) { a = tx.Alloc(1); tx.Store(a, 3) })
	runs := 0
	tm.AtomicRO(tx, func(tx *Tx) {
		//stm:allow-effect deliberate retry counter: the test asserts the upgrade re-runs the body
		runs++
		if runs == 1 && !tx.ReadOnly() {
			t.Error("first attempt should be read-only")
		}
		v := tx.Load(a)
		//stm:allow-write deliberate: the write IS the upgrade under test
		tx.Store(a, v+1) // forces upgrade
	})
	if runs != 2 {
		t.Errorf("runs = %d, want 2 (RO attempt + upgraded retry)", runs)
	}
	tm.Atomic(tx, func(tx *Tx) {
		if got := tx.Load(a); got != 4 {
			t.Errorf("value = %d, want 4", got)
		}
	})
	s := tm.Stats()
	if s.AbortsByKind[txn.AbortUpgrade] != 1 {
		t.Errorf("upgrade aborts = %d, want 1", s.AbortsByKind[txn.AbortUpgrade])
	}
}

func TestReadOnlyKeepsNoReadSet(t *testing.T) {
	tm, _ := newTestTM(t, WriteBack, nil)
	tx := tm.NewTx()
	var a uint64
	tm.Atomic(tx, func(tx *Tx) {
		a = tx.Alloc(8)
		for i := uint64(0); i < 8; i++ {
			tx.Store(a+i, i)
		}
	})
	tm.AtomicRO(tx, func(tx *Tx) {
		for i := uint64(0); i < 8; i++ {
			_ = tx.Load(a + i)
		}
		if tx.ReadSetSize() != 0 {
			t.Errorf("read-only read set size = %d, want 0", tx.ReadSetSize())
		}
	})
	tm.Atomic(tx, func(tx *Tx) {
		for i := uint64(0); i < 8; i++ {
			_ = tx.Load(a + i)
		}
		if tx.ReadSetSize() != 8 {
			t.Errorf("update read set size = %d, want 8", tx.ReadSetSize())
		}
	})
}

func TestFlatNesting(t *testing.T) {
	tm, _ := newTestTM(t, WriteBack, nil)
	tx := tm.NewTx()
	var a uint64
	tm.Atomic(tx, func(outer *Tx) {
		a = outer.Alloc(1)
		outer.Store(a, 1)
		//stm:allow-effect deliberate: flat nesting (inner block merges into the outer) is under test
		tm.Atomic(tx, func(inner *Tx) {
			inner.Store(a, inner.Load(a)+1)
		})
		if got := outer.Load(a); got != 2 {
			t.Errorf("after nested block = %d, want 2", got)
		}
	})
	if tm.Stats().Commits != 1 {
		t.Errorf("commits = %d, want 1 (flattened)", tm.Stats().Commits)
	}
}

func TestForeignPanicRollsBackAndPropagates(t *testing.T) {
	bothDesigns(t, func(t *testing.T, d Design) {
		tm, sp := newTestTM(t, d, nil)
		tx := tm.NewTx()
		var a uint64
		tm.Atomic(tx, func(tx *Tx) { a = tx.Alloc(1); tx.Store(a, 1) })
		func() {
			defer func() {
				if r := recover(); r != "boom" {
					t.Errorf("recovered %v, want boom", r)
				}
			}()
			tm.Atomic(tx, func(tx *Tx) {
				tx.Store(a, 99)
				panic("boom")
			})
		}()
		if got := sp.Load(mem.Addr(a)); got != 1 {
			t.Errorf("memory after panic = %d, want 1", got)
		}
		if tx.InTx() {
			t.Error("descriptor still in transaction after panic")
		}
		// The TM must be fully usable afterwards.
		tm.Atomic(tx, func(tx *Tx) { tx.Store(a, 2) })
		if got := sp.Load(mem.Addr(a)); got != 2 {
			t.Errorf("post-panic commit = %d, want 2", got)
		}
	})
}

func TestExplicitRetry(t *testing.T) {
	tm, _ := newTestTM(t, WriteBack, nil)
	tx := tm.NewTx()
	var a uint64
	tm.Atomic(tx, func(tx *Tx) { a = tx.Alloc(1) })
	runs := 0
	tm.Atomic(tx, func(tx *Tx) {
		//stm:allow-effect deliberate retry counter: the test asserts Retry re-runs the body
		runs++
		if runs < 3 {
			tx.Retry()
		}
		tx.Store(a, uint64(runs))
	})
	if runs != 3 {
		t.Errorf("runs = %d, want 3", runs)
	}
	if got := tm.Stats().AbortsByKind[txn.AbortExplicit]; got != 2 {
		t.Errorf("explicit aborts = %d, want 2", got)
	}
}

func TestCommitTimestampFastPathSkipsValidation(t *testing.T) {
	// A lone transaction committing with ts == start+1 must not validate.
	tm, _ := newTestTM(t, WriteBack, nil)
	tx := tm.NewTx()
	var a uint64
	tm.Atomic(tx, func(tx *Tx) { a = tx.Alloc(2) })
	before := tm.Stats()
	tm.Atomic(tx, func(tx *Tx) {
		_ = tx.Load(a + 1)
		tx.Store(a, 1)
	})
	d := tm.Stats().Sub(before)
	if d.LocksValidated != 0 || d.LocksSkipped != 0 {
		t.Errorf("validation ran on fast path: checked=%d skipped=%d",
			d.LocksValidated, d.LocksSkipped)
	}
}

func TestStatsCountCommitsAndAborts(t *testing.T) {
	tm, _ := newTestTM(t, WriteBack, nil)
	tx := tm.NewTx()
	var a uint64
	for i := 0; i < 10; i++ {
		tm.Atomic(tx, func(tx *Tx) {
			if a == 0 {
				a = tx.Alloc(1)
			}
			tx.Store(a, uint64(i))
		})
	}
	s := tm.Stats()
	if s.Commits != 10 {
		t.Errorf("commits = %d, want 10", s.Commits)
	}
	if s.Aborts != 0 {
		t.Errorf("aborts = %d, want 0", s.Aborts)
	}
}

func TestDescriptorTMBinding(t *testing.T) {
	tm1, _ := newTestTM(t, WriteBack, nil)
	tm2, _ := newTestTM(t, WriteBack, nil)
	tx := tm1.NewTx()
	defer func() {
		if recover() == nil {
			t.Error("foreign descriptor accepted")
		}
	}()
	tm2.Atomic(tx, func(tx *Tx) {})
}

func TestOperationsOutsideTransactionPanic(t *testing.T) {
	tm, _ := newTestTM(t, WriteBack, nil)
	tx := tm.NewTx()
	for name, f := range map[string]func(){
		"Load":   func() { tx.Load(1) },
		"Store":  func() { tx.Store(1, 2) },
		"Alloc":  func() { tx.Alloc(1) },
		"Free":   func() { tx.Free(1, 1) },
		"Commit": func() { tx.Commit() },
		"Retry":  func() { tx.Retry() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s outside transaction did not panic", name)
				}
			}()
			f()
		}()
	}
}

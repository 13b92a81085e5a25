package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"tinystm/internal/mem"
	"tinystm/internal/rng"
	"tinystm/internal/txn"
)

// The capture window's rules (memmgmt.go): the attempt's most recent
// allocation is served straight from the space, older blocks of the
// attempt take the ordinary path, the window never re-enters a block and
// never outlives its attempt, and a store through it makes the attempt an
// update whose births the sidecar records.

// lockWordOf returns the lock word covering addr in tm's current geometry.
func lockWordOf(tm *TM, addr uint64) uint64 {
	g := tm.geo.Load()
	return g.loadLock(g.lockIndex(addr))
}

// logged reports how many read-set, write-set, owned-lock and undo
// entries the attempt holds.
func logged(tx *Tx) int {
	n := len(tx.wset) + len(tx.owned) + len(tx.undo)
	for _, part := range tx.rparts {
		n += len(part)
	}
	return n
}

// TestCapturedReadYourWritesAcrossWindowSwitch: A is stored through the
// window, then through the ordinary path once B took the window over; every
// load of A returns the latest store, in the attempt and after commit. On
// abort, the words the attempt linked are restored and both blocks go back
// to the space. The next attempt finds the window empty: a store to the
// block the last one committed takes its lock.
func TestCapturedReadYourWritesAcrossWindowSwitch(t *testing.T) {
	bothDesigns(t, func(t *testing.T, d Design) {
		tm, sp := newTestTM(t, d, nil)
		tx := tm.NewTx()
		var p uint64
		tm.Atomic(tx, func(tx *Tx) { p = tx.Alloc(1) })
		tm.Atomic(tx, func(tx *Tx) { tx.Store(p, 5) })

		run := func(commit bool) (a, b uint64) {
			t.Helper()
			tx.Begin(false)
			if !attempt(func() {
				a = tx.Alloc(2)
				tx.Store(a, 1)
				tx.Store(a+1, 11)
				b = tx.Alloc(2)
				if logged(tx) != 0 {
					t.Fatalf("stores into the window logged %d entries", logged(tx))
				}
				tx.Store(a, 2) // A left the window: the ordinary path
				tx.Store(b, 3)
				if got := tx.Load(a); got != 2 {
					t.Fatalf("Load(A) = %d after the window moved to B, want 2", got)
				}
				if got := tx.Load(a + 1); got != 11 {
					t.Fatalf("Load(A+1) = %d, want the captured store's 11", got)
				}
				if got := tx.Load(b); got != 3 {
					t.Fatalf("Load(B) = %d, want 3", got)
				}
				tx.Store(p, a)
			}) {
				t.Fatal("unexpected abort")
			}
			if commit {
				if !tx.Commit() {
					t.Fatal("commit failed single-threaded")
				}
			} else {
				tx.rollback(txn.AbortExplicit)
			}
			return a, b
		}

		live := sp.LiveWords()
		run(false)
		if got := sp.LiveWords(); got != live {
			t.Fatalf("live words after abort = %d, want %d", got, live)
		}
		var pv uint64
		tm.AtomicRO(tx, func(tx *Tx) { pv = tx.Load(p) })
		if pv != 5 {
			t.Fatalf("the aborted attempt's link survived: p = %d, want 5", pv)
		}

		a, b := run(true)
		var got [4]uint64
		tm.AtomicRO(tx, func(tx *Tx) { got = [4]uint64{tx.Load(p), tx.Load(a), tx.Load(a + 1), tx.Load(b)} })
		if got != [4]uint64{a, 2, 11, 3} {
			t.Fatalf("after commit p, A, A+1, B = %v, want %v", got, [4]uint64{a, 2, 11, 3})
		}

		tx.Begin(false)
		if !attempt(func() { tx.Store(b, 4) }) {
			t.Fatal("unexpected abort")
		}
		if lw := lockWordOf(tm, b); !isOwned(lw) || ownerSlot(lw) != tx.Slot() {
			t.Fatal("a store to the last attempt's window block took no lock: the window outlived its attempt")
		}
		if !tx.Commit() {
			t.Fatal("commit failed single-threaded")
		}
	})
}

// TestCapturedStoreTakesNoLock: a store into the window leaves the word's
// lock word as it was and logs nothing, and a load of it records no read.
func TestCapturedStoreTakesNoLock(t *testing.T) {
	bothDesigns(t, func(t *testing.T, d Design) {
		tm, _ := newTestTM(t, d, nil)
		tx := tm.NewTx()
		tx.Begin(false)
		if !attempt(func() {
			a := tx.Alloc(1)
			before := lockWordOf(tm, a)
			tx.Store(a, 7)
			if lw := lockWordOf(tm, a); lw != before {
				t.Fatalf("captured store moved the lock word %#x → %#x", before, lw)
			}
			if got := tx.Load(a); got != 7 {
				t.Fatalf("Load = %d, want 7", got)
			}
			if n := logged(tx); n != 0 {
				t.Fatalf("captured store and load logged %d entries", n)
			}
		}) {
			t.Fatal("unexpected abort")
		}
		if !tx.Commit() {
			t.Fatal("commit failed single-threaded")
		}
	})
}

// TestCapturedFreeOfWindowBlock: freeing the window block locks nothing,
// makes the attempt an update that retires the block at its timestamp,
// and an abort instead releases the block once, with the other
// allocations.
func TestCapturedFreeOfWindowBlock(t *testing.T) {
	bothDesigns(t, func(t *testing.T, d Design) {
		tm, sp := newTestTM(t, d, nil)
		tx := tm.NewTx()
		live := sp.LiveWords()
		for _, commit := range []bool{false, true} {
			tx.Begin(false)
			if !attempt(func() {
				a := tx.Alloc(3)
				tx.Store(a, 1)
				before := lockWordOf(tm, a)
				tx.Free(a, 3)
				if lw := lockWordOf(tm, a); lw != before {
					t.Fatalf("Free of the window block moved its lock word %#x → %#x", before, lw)
				}
				if n := logged(tx); n != 0 {
					t.Fatalf("Free of the window block logged %d entries", n)
				}
			}) {
				t.Fatal("unexpected abort")
			}
			if !commit {
				tx.rollback(txn.AbortExplicit)
				if got := sp.LiveWords(); got != live {
					t.Fatalf("live words after abort = %d, want %d", got, live)
				}
				continue
			}
			if !tx.Commit() {
				t.Fatal("commit failed single-threaded")
			}
			if tx.LastCommitTS() == 0 {
				t.Fatal("an attempt that freed its window block committed read-only: the block leaks")
			}
			drainForTest(tm)
			if got := sp.LiveWords(); got != live {
				t.Fatalf("live words after commit and drain = %d, want %d", got, live)
			}
		}
	})
}

// TestCapturedOnlyAttemptIsAnUpdate: an attempt whose only writes went
// through the window holds no lock, yet takes a commit timestamp. With a
// snapshot registered, every word of its block — stored to or not — reads
// that timestamp in the sidecar's written array; with none, the commit
// stamps nothing.
func TestCapturedOnlyAttemptIsAnUpdate(t *testing.T) {
	bothDesigns(t, func(t *testing.T, d Design) {
		tm := newSnapTM(t, d, nil)
		tx := tm.NewTx()
		const n = 4
		for _, reader := range []bool{false, true} {
			var a uint64
			whileRegistered(t, tm, reader, func() {
				tm.Atomic(tx, func(tx *Tx) {
					a = tx.Alloc(n)
					tx.Store(a+1, 9)
				})
			})
			ts := tx.LastCommitTS()
			if ts == 0 || ts != tm.ClockValue() {
				t.Fatalf("captured-only commit ts = %d (clock %d): it must commit as an update", ts, tm.ClockValue())
			}
			want := uint64(0)
			if reader {
				want = ts
			}
			for w := uint64(0); w < n; w++ {
				if got := tm.mvcc.Written(a + w); got != want {
					t.Fatalf("reader registered %v: born word %d has written record %d, want %d (commit ts %d)",
						reader, w, got, want, ts)
				}
			}
		}
	})
}

// TestCapturedBirthsPrecedeRelease: a versioned commit stamps its births
// before it releases its locks. The first transaction allocates a long
// block, fills in the node at its far end through the window and links
// it; the second, on another goroutine, waits for the link and then
// writes the node, whose written record must end at the second commit's
// timestamp. A commit that stamped its births after releasing its locks
// would still be walking the long block when the second one stamped the
// node, and would then move the node's record back behind that write.
// Catching that takes two processors; with one, the test still checks the
// order holds. A snapshot stays registered across these rounds, so both
// commits version; one more round with none registered stamps nothing.
func TestCapturedBirthsPrecedeRelease(t *testing.T) {
	const pad, rounds = 1 << 16, 12 // (rounds+1)*pad fits newTestTM's space
	bothDesigns(t, func(t *testing.T, d Design) {
		tm := newSnapTM(t, d, nil)
		tx := tm.NewTx()
		defer tx.Release()
		var root uint64
		tm.Atomic(tx, func(tx *Tx) { root = tx.Alloc(1) })
		// round links a fresh node at the far end of a long block and
		// returns it with the timestamp of the other goroutine's write.
		round := func(prev uint64) (n, wts uint64) {
			wrote := make(chan uint64)
			go func() {
				tx := tm.NewTx()
				defer tx.Release()
				n := prev
				for n == prev {
					tm.AtomicRO(tx, func(tx *Tx) { n = tx.Load(root) })
					runtime.Gosched()
				}
				tm.Atomic(tx, func(tx *Tx) { tx.Store(n, tx.Load(n)+1) })
				wrote <- tx.LastCommitTS()
			}()
			tm.Atomic(tx, func(tx *Tx) {
				n = tx.Alloc(pad+1) + pad
				tx.Store(n, 1)
				tx.Store(root, n)
			})
			return n, <-wrote
		}
		var prev uint64
		whileRegistered(t, tm, true, func() {
			for r := 0; r < rounds; r++ {
				n, ts := round(prev)
				if tm.mvcc.Written(n) != ts {
					t.Fatalf("round %d: node %d has written record %d, want the later writer's ts %d (the births' commit was %d)",
						r, n, tm.mvcc.Written(n), ts, tx.LastCommitTS())
				}
				prev = n
			}
		})
		if n, _ := round(prev); tm.mvcc.Written(n) != 0 {
			t.Fatalf("with no snapshot registered, node %d has written record %d, want none", n, tm.mvcc.Written(n))
		}
	})
}

// The allocation-heavy opacity probe. Slots point at two-word nodes [a, b]
// with a+b fixed per node and the a's summing to a fixed total. Writers
// replace a node — allocate, initialise through the window, link, free the
// old one, so freed nodes are reclaimed and recycled under the readers —
// or move an amount between two nodes in place. Readers check both
// invariants inside their bodies, classic and snapshot, so an attempt that
// would later abort must not see a broken state either. Snapshot readers
// come and go, so some commits are versioned and some are not. At the end,
// a node whose slot's last commit was versioned carries that commit's
// timestamp in the sidecar, and any other node an older record.

const (
	heavySlots   = 8
	heavyPerNode = 1000
)

// opacityViolation is the panic a reader body raises on a broken invariant.
type opacityViolation string

// heavyCheck is a reader body: both invariants over every slot.
func heavyCheck(root uint64, words uint64) func(*Tx) {
	return func(tx *Tx) {
		var sum uint64
		for i := uint64(0); i < heavySlots; i++ {
			n := tx.Load(root + i)
			if n == 0 || n+2 > words {
				panic(opacityViolation(fmt.Sprintf("slot %d points at %d", i, n)))
			}
			a, b := tx.Load(n), tx.Load(n+1)
			if a+b != heavyPerNode {
				panic(opacityViolation(fmt.Sprintf("slot %d: node %d holds a=%d b=%d", i, n, a, b)))
			}
			sum += a
		}
		if sum != heavySlots*heavyPerNode/2 {
			panic(opacityViolation(fmt.Sprintf("the a's sum to %d", sum)))
		}
	}
}

// raiseTo lifts v to at least x.
func raiseTo(v *atomic.Uint64, x uint64) {
	for {
		old := v.Load()
		if old >= x || v.CompareAndSwap(old, x) {
			return
		}
	}
}

func TestAllocHeavyOpacity(t *testing.T) {
	ops, reads := 1500, 300
	if testing.Short() {
		ops, reads = 300, 60
	}
	for _, d := range []Design{WriteBack, WriteThrough} {
		for _, h := range []uint64{1, 4} {
			for _, y := range []int{0, 4} {
				t.Run(fmt.Sprintf("%v/h=%d/yield=%d", d, h, y), func(t *testing.T) {
					runAllocHeavy(t, d, h, y, ops, reads)
				})
			}
		}
	}
}

// runAllocHeavy runs two writers for at least ops commits each and until
// the readers have finished minReads bodies between them, so the readers
// overlap the writers however the host schedules them.
func runAllocHeavy(t *testing.T, d Design, h uint64, yield, ops, minReads int) {
	const words = 1 << 16
	tm, _ := newTestTM(t, d, func(c *Config) {
		c.Space = mem.NewSpace(words)
		c.Locks = 1 << 6 // node words alias: the sidecar's written records matter
		c.Hier = h
		c.YieldEvery = yield
		c.Snapshots = true
	})
	withSidecarShards(tm, 4)
	var root uint64
	setup := tm.NewTx()
	tm.Atomic(setup, func(tx *Tx) {
		root = tx.Alloc(heavySlots)
		for i := uint64(0); i < heavySlots; i++ {
			n := tx.Alloc(2)
			tx.Store(n, heavyPerNode/2)
			tx.Store(n+1, heavyPerNode/2)
			tx.Store(root+i, n)
		}
	})
	setup.Release()

	// lastWrite[i] is the newest commit that wrote slot i's node, as
	// ts<<1 | 1 when that commit was versioned (a snapshot reader was
	// registered when it decided), so raiseTo still orders by timestamp.
	var lastWrite [heavySlots]atomic.Uint64
	var failed atomic.Pointer[string]
	fail := func(msg string) { failed.CompareAndSwap(nil, &msg) }
	var writers, readers sync.WaitGroup
	var writing, reads atomic.Int32
	for w := 0; w < 2; w++ {
		writers.Add(1)
		writing.Add(1)
		go func(seed uint64) {
			defer writers.Done()
			defer writing.Add(-1)
			tx := tm.NewTx()
			defer tx.Release()
			r := rng.New(seed)
			var i, j, amt uint64
			replace := func(tx *Tx) {
				old := tx.Load(root + i)
				a, b := tx.Load(old), tx.Load(old+1)
				n := tx.Alloc(2)
				tx.Store(n, a)
				tx.Store(n+1, b)
				tx.Store(root+i, n)
				tx.Free(old, 2)
			}
			move := func(tx *Tx) {
				ni, nj := tx.Load(root+i), tx.Load(root+j)
				tx.Store(ni, tx.Load(ni)+amt)
				tx.Store(ni+1, tx.Load(ni+1)-amt)
				tx.Store(nj, tx.Load(nj)-amt)
				tx.Store(nj+1, tx.Load(nj+1)+amt)
			}
			// stamp runs body and returns its commit's ts with the
			// versioned bit.
			stamp := func(body func(*Tx)) uint64 {
				v0 := tx.stats.versionedCommits.Load()
				tm.Atomic(tx, body)
				if tx.stats.versionedCommits.Load() != v0 {
					return tx.LastCommitTS()<<1 | 1
				}
				return tx.LastCommitTS() << 1
			}
			for k := 0; failed.Load() == nil && (k < ops || int(reads.Load()) < minReads); k++ {
				i = r.Uint64n(heavySlots)
				if r.Uint64n(2) == 0 {
					raiseTo(&lastWrite[i], stamp(replace))
					continue
				}
				j = (i + 1 + r.Uint64n(heavySlots-1)) % heavySlots
				amt = r.Uint64n(7) + 1
				ts := stamp(move)
				raiseTo(&lastWrite[i], ts)
				raiseTo(&lastWrite[j], ts)
			}
		}(uint64(w) + 1)
	}
	check := heavyCheck(root, words)
	for _, snap := range []bool{false, true} {
		readers.Add(1)
		go func() {
			defer readers.Done()
			tx := tm.NewTx()
			defer tx.Release()
			read := func() {
				defer func() {
					if r := recover(); r != nil {
						v, ok := r.(opacityViolation)
						if !ok {
							panic(r)
						}
						fail(fmt.Sprintf("snapshot=%v reader: %s", snap, v))
					}
				}()
				if snap {
					tm.AtomicSnap(tx, check)
				} else {
					tm.AtomicRO(tx, check)
				}
			}
			for failed.Load() == nil && writing.Load() > 0 {
				read()
				reads.Add(1)
				runtime.Gosched()
			}
		}()
	}
	writers.Wait()
	readers.Wait()
	if msg := failed.Load(); msg != nil {
		t.Fatal(*msg)
	}

	tx := tm.NewTx()
	defer tx.Release()
	var nodes [heavySlots]uint64
	tm.AtomicRO(tx, func(tx *Tx) {
		for i := range nodes {
			nodes[i] = tx.Load(root + uint64(i))
		}
	})
	// A versioned last commit left its timestamp on the node; an
	// unversioned one left an older record, never a newer one.
	versioned := 0
	for i, n := range nodes {
		last := lastWrite[i].Load()
		ts, stamped := last>>1, last&1 == 1
		for w := uint64(0); w < 2; w++ {
			got := tm.mvcc.Written(n + w)
			if stamped && got != ts {
				t.Fatalf("slot %d: node word %d has written record %d, want %d (the slot's last commit, versioned)", i, n+w, got, ts)
			}
			if !stamped && got >= ts {
				t.Fatalf("slot %d: node word %d has written record %d, want one older than the slot's last commit %d (unversioned)", i, n+w, got, ts)
			}
		}
		if stamped {
			versioned++
		}
	}
	t.Logf("%d of %d slots last written by a versioned commit", versioned, heavySlots)
}

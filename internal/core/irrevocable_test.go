package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"tinystm/internal/mem"
	"tinystm/internal/obs"
	"tinystm/internal/txn"
)

// An irrevocable run (TM.Irrevocable) is a transaction like any other to
// everyone else: no reader sees part of it, it commits in timestamp order,
// and a panic in its body leaves the space, the freezer and the
// descriptor as they were.

// designsAndHier runs f for both designs at h ∈ {1, 4}.
func designsAndHier(t *testing.T, f func(t *testing.T, d Design, h uint64)) {
	for _, d := range []Design{WriteBack, WriteThrough} {
		for _, h := range []uint64{1, 4} {
			t.Run(fmt.Sprintf("%v/h=%d", d, h), func(t *testing.T) { f(t, d, h) })
		}
	}
}

// bulkSlots is how many slots each batch of
// TestIrrevocableReadersSeeWholeBatches rewrites.
const bulkSlots = 48

// TestIrrevocableReadersSeeWholeBatches: slot i points at a node holding
// the slot's generation. An irrevocable writer and a transactional one
// each replace every slot's node with one holding the next generation,
// freeing the old; classic and snapshot readers, running throughout,
// must find every slot at one generation. Locks alias node words, so a
// reader that met a half-applied batch would see two generations.
func TestIrrevocableReadersSeeWholeBatches(t *testing.T) {
	batches, minReads := 200, 100
	if testing.Short() {
		batches, minReads = 50, 25
	}
	designsAndHier(t, func(t *testing.T, d Design, h uint64) {
		tm, _ := newTestTM(t, d, func(c *Config) {
			c.Space = mem.NewSpace(1 << 16)
			c.Locks = 1 << 6
			c.Hier = h
			c.YieldEvery = 4
			c.Snapshots = true
			c.SnapshotShards = 4
		})
		var root uint64
		setup := tm.NewTx()
		tm.Atomic(setup, func(tx *Tx) {
			root = tx.Alloc(bulkSlots)
			for i := uint64(0); i < bulkSlots; i++ {
				tx.Store(root+i, tx.Alloc(1))
			}
		})
		setup.Release()
		// next rewrites every slot to the following generation.
		next := func(tx *Tx) {
			gen := tx.Load(tx.Load(root)) + 1
			for i := uint64(0); i < bulkSlots; i++ {
				old := tx.Load(root + i)
				n := tx.Alloc(1)
				tx.Store(n, gen)
				tx.Store(root+i, n)
				tx.Free(old, 1)
			}
		}
		check := func(tx *Tx) {
			gen := tx.Load(tx.Load(root))
			for i := uint64(1); i < bulkSlots; i++ {
				if g := tx.Load(tx.Load(root + i)); g != gen {
					panic(opacityViolation(fmt.Sprintf("slot 0 at generation %d, slot %d at %d", gen, i, g)))
				}
			}
		}

		var failed atomic.Pointer[string]
		var writers, readers sync.WaitGroup
		var writing, reads atomic.Int32
		var wrote atomic.Uint64
		for _, irrevocable := range []bool{true, false} {
			writers.Add(1)
			writing.Add(1)
			go func() {
				defer writers.Done()
				defer writing.Add(-1)
				tx := tm.NewTx()
				defer tx.Release()
				for k := 0; failed.Load() == nil && (k < batches || int(reads.Load()) < minReads); k++ {
					if irrevocable {
						tm.Irrevocable(tx, next)
						// Let the readers in: every run stops them.
						runtime.Gosched()
					} else {
						tm.Atomic(tx, next)
					}
					wrote.Add(1)
				}
			}()
		}
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
							msg := fmt.Sprintf("snapshot=%v reader: %s", snap, v)
							failed.CompareAndSwap(nil, &msg)
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
		st := tm.Stats()
		tx := tm.NewTx()
		defer tx.Release()
		var gen uint64
		tm.AtomicRO(tx, func(tx *Tx) { gen = tx.Load(tx.Load(root)) })
		if gen != wrote.Load() {
			t.Fatalf("generation %d after %d batches", gen, wrote.Load())
		}
		if st.IrrevocableCommits == 0 || st.IrrevocableCommits >= wrote.Load() {
			t.Fatalf("%d irrevocable commits of %d batches", st.IrrevocableCommits, wrote.Load())
		}
		t.Logf("%d irrevocable and %d transactional batches, %d reads", st.IrrevocableCommits, wrote.Load()-st.IrrevocableCommits, reads.Load())
	})
}

// TestIrrevocablePanicRestores: a run that overwrites pre-existing words
// (some twice), frees a block, links a fresh one and then fills the space
// panics with ErrSpaceExhausted. Every word it stored to reads as before,
// the block it freed and every block it allocated are where they were,
// the TM is unfrozen (another goroutine's transaction commits), and the
// descriptor runs the next transaction and the next irrevocable run.
func TestIrrevocablePanicRestores(t *testing.T) {
	designsAndHier(t, func(t *testing.T, d Design, h uint64) {
		const n = 32
		sp := mem.NewSpace(1 << 12)
		tm, _ := newTestTM(t, d, func(c *Config) {
			c.Space = sp
			c.Hier = h
		})
		tx := tm.NewTx()
		defer tx.Release()
		var pre, victim uint64
		tm.Atomic(tx, func(tx *Tx) {
			pre = tx.Alloc(n)
			for i := uint64(0); i < n; i++ {
				tx.Store(pre+i, 100+i)
			}
			victim = tx.Alloc(4)
			tx.Store(pre, victim)
		})
		live, before := sp.LiveWords(), tm.Stats()

		got := func() (r any) {
			defer func() { r = recover() }()
			tm.Irrevocable(tx, func(tx *Tx) {
				for i := uint64(1); i < n; i++ {
					tx.Store(pre+i, 200+i)
				}
				for i := uint64(1); i < n; i += 2 {
					tx.Store(pre+i, tx.Load(pre+i)+100)
				}
				tx.Free(tx.Load(pre), 4)
				b := tx.Alloc(8)
				tx.Store(b, 7)
				tx.Store(pre, b)
				for {
					tx.Alloc(64)
				}
			})
			return nil
		}()
		if got != ErrSpaceExhausted {
			t.Fatalf("the run panicked with %v, want ErrSpaceExhausted", got)
		}
		for i := uint64(1); i < n; i++ {
			if v := sp.Load(mem.Addr(pre + i)); v != 100+i {
				t.Fatalf("word %d reads %d after the panic, want %d", i, v, 100+i)
			}
		}
		if v := sp.Load(mem.Addr(pre)); v != victim {
			t.Fatalf("word 0 reads %d after the panic, want the freed block's %d", v, victim)
		}
		if l := sp.LiveWords(); l != live {
			t.Fatalf("%d live words after the panic, want %d", l, live)
		}
		if tm.Frozen() || tx.InTx() {
			t.Fatalf("after the panic: frozen=%v, inTx=%v", tm.Frozen(), tx.InTx())
		}
		delta := tm.Stats().Sub(before)
		if delta.Commits != 0 || delta.IrrevocableCommits != 0 || delta.AbortsByKind[txn.AbortExplicit] != 1 {
			t.Fatalf("the panic counted %d commits, %d irrevocable, %d explicit aborts; want 0, 0, 1",
				delta.Commits, delta.IrrevocableCommits, delta.AbortsByKind[txn.AbortExplicit])
		}

		done := make(chan struct{})
		go func() {
			defer close(done)
			other := tm.NewTx()
			defer other.Release()
			tm.Atomic(other, func(tx *Tx) { tx.Store(pre+1, tx.Load(pre+1)+1) })
		}()
		<-done
		tm.Atomic(tx, func(tx *Tx) { tx.Store(pre+2, tx.Load(pre+2)+1) })
		tm.Irrevocable(tx, func(tx *Tx) { tx.Store(pre+3, tx.Load(pre+3)+1) })
		var after [4]uint64
		tm.AtomicRO(tx, func(tx *Tx) {
			for i := uint64(1); i <= 3; i++ {
				after[i] = tx.Load(pre + i)
			}
		})
		for i := uint64(1); i <= 3; i++ {
			if after[i] != 101+i {
				t.Errorf("word %d reads %d, want %d", i, after[i], 101+i)
			}
		}
	})
}

// TestIrrevocableAcrossRollOver: at MaxClock 16 the clock rolls over
// every few commits. Irrevocable and transactional increments of one
// counter, from two goroutines, all land; irrevocable runs start past a
// roll-over when the clock is exhausted and never draw a timestamp at or
// past MaxClock; and the redo hook sees every commit in (epoch, ts)
// order, the irrevocable ones included.
func TestIrrevocableAcrossRollOver(t *testing.T) {
	designsAndHier(t, func(t *testing.T, d Design, h uint64) {
		const maxClock, rounds = 16, 400
		tm, _ := newTestTM(t, d, func(c *Config) {
			c.MaxClock = maxClock
			c.Hier = h
			c.Snapshots = true
		})
		var mu sync.Mutex
		var last [2]uint64
		var disorder string
		tm.SetRedoHook(func(epoch, ts uint64, ops []txn.RedoOp) txn.DurableTicket {
			mu.Lock()
			defer mu.Unlock()
			if (epoch < last[0] || epoch == last[0] && ts <= last[1]) && disorder == "" {
				disorder = fmt.Sprintf("(%d, %d) after (%d, %d)", epoch, ts, last[0], last[1])
			}
			last = [2]uint64{epoch, ts}
			return nil
		})
		var c uint64
		setup := tm.NewTx()
		tm.Atomic(setup, func(tx *Tx) { c = tx.Alloc(1) })
		setup.Release()
		inc := func(tx *Tx) {
			tx.Store(c, tx.Load(c)+1)
			tx.Redo(txn.RedoOp{Kind: txn.RedoPut, Key: c})
		}
		var wg sync.WaitGroup
		var tooLate atomic.Uint64
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				tx := tm.NewTx()
				defer tx.Release()
				for k := 0; k < rounds; k++ {
					if (k+g)%2 == 0 {
						tm.Irrevocable(tx, inc)
						if tx.LastCommitTS() >= maxClock {
							tooLate.Store(tx.LastCommitTS())
						}
					} else {
						tm.Atomic(tx, inc)
					}
				}
			}()
		}
		wg.Wait()
		if ts := tooLate.Load(); ts != 0 {
			t.Fatalf("an irrevocable run committed at %d, at or past MaxClock %d", ts, maxClock)
		}
		if disorder != "" {
			t.Fatalf("the redo hook saw %s", disorder)
		}
		tx := tm.NewTx()
		defer tx.Release()
		var got uint64
		tm.AtomicRO(tx, func(tx *Tx) { got = tx.Load(c) })
		st := tm.Stats()
		if got != 2*rounds || st.IrrevocableCommits != rounds {
			t.Fatalf("counter %d after %d increments, %d of them irrevocable (want %d)", got, 2*rounds, st.IrrevocableCommits, rounds)
		}
		if st.RollOvers < 2*rounds/maxClock {
			t.Fatalf("%d roll-overs in %d commits at MaxClock %d", st.RollOvers, st.Commits, maxClock)
		}
	})
}

// TestIrrevocableObserved: an irrevocable run counts as a commit and an
// irrevocable commit, lands in the commit histogram, and is one freeze.
func TestIrrevocableObserved(t *testing.T) {
	tm, _ := newTestTM(t, WriteBack, nil)
	o := obs.NewTMObs(nil)
	tm.SetObs(o)
	tx := tm.NewTx()
	defer tx.Release()
	tm.Irrevocable(tx, func(tx *Tx) { tx.Store(tx.Alloc(1), 1) })
	st := tm.Stats()
	if st.Commits != 1 || st.IrrevocableCommits != 1 {
		t.Fatalf("%d commits, %d irrevocable; want 1, 1", st.Commits, st.IrrevocableCommits)
	}
	if c, f := o.CommitNs.Snapshot().Count, o.FreezeNs.Snapshot().Count; c != 1 || f != 1 {
		t.Fatalf("%d commits timed, %d freezes; want 1, 1", c, f)
	}
}

// TestIrrevocableRefusesNestingAndRetry: a run cannot start inside a
// transaction, and a body that calls Retry panics out of the run
// instead of spinning on a frozen world.
func TestIrrevocableRefusesNestingAndRetry(t *testing.T) {
	tm, _ := newTestTM(t, WriteBack, nil)
	tx := tm.NewTx()
	defer tx.Release()
	panics := func(fn func()) (r any) {
		defer func() { r = recover() }()
		fn()
		return nil
	}
	nested := func(tx *Tx) {
		//stm:allow-effect the nesting is what this test refuses
		tm.Irrevocable(tx, func(*Tx) {})
	}
	if r := panics(func() { tm.Atomic(tx, nested) }); r == nil {
		t.Fatal("Irrevocable inside a transaction did not panic")
	}
	if r := panics(func() { tm.Irrevocable(tx, func(tx *Tx) { tx.Retry() }) }); r == nil {
		t.Fatal("Retry in an irrevocable run did not panic")
	}
	if tm.Frozen() || tx.InTx() {
		t.Fatalf("frozen=%v, inTx=%v after the refused runs", tm.Frozen(), tx.InTx())
	}
}

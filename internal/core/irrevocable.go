package core

import (
	"time"

	"tinystm/internal/mem"
)

// Irrevocable runs fn as a transaction alone: behind the freeze barrier
// (Quiesce), with no other attempt in flight, so it cannot conflict and
// cannot abort. It is TinySTM's irrevocable (serial) mode, for a
// transaction that profits little from the lock table: a kvstore bulk
// batch spans so many lines that it likely collides with any concurrent
// writer, and through the STM it pays a lock, a read-set entry and a
// write-set or undo entry per word, and a validation, mostly for nothing.
//
// The descriptor's capture window spans the whole space for the run, so
// every Load and Store takes the captured path of memmgmt.go: a plain
// load or store of the space. Alloc keeps that window, and Free locks
// nothing. A store to a word outside the run's latest allocation first
// logs the word's value (logUndo): the run commits with one tick of the
// clock, in commit order for the redo hook, and a panic in fn (an Alloc
// that found the space full, ErrSpaceExhausted, say) restores every word
// the log holds, newest first, frees fn's allocations, unfreezes the TM
// and re-panics. fn must not call Retry, and it must not run another
// descriptor's transaction, which would park at the freeze for good. tx
// must not be inside a transaction. With an observability sink attached
// the run lands in the commit histogram, and its freeze in FreezeNs.
//
// Why the run needs no lock, log or validation, in the style of
// Quiesce's argument, whose premises hold for fn's plain loads and
// stores as for any rewrite under the barrier:
//
//   - (Q) No other attempt or snapshot straddles the run. It reads the
//     committed state, and no attempt can observe part of it: every
//     later attempt begins after the run has committed.
//   - (U) The run touches no lock word, no sidecar record or retained
//     version and no hierarchical counter. Every version and record
//     stays at or below now, the clock at the freeze. A block the run
//     frees is unreachable once it commits, so it goes back to the space
//     at once, and the words it allocates need no birth.
//   - (S) Every later attempt and snapshot starts at or after the clock
//     the barrier is lowered at.
//
// The one new obligation is the commit timestamp ts. It is drawn inside
// the freeze, where no other commit can draw one, so ts = now+1: it
// exceeds every version and record (U), and every later start is >= ts
// (S). A later attempt therefore accepts each word the run wrote on its
// stripe's unmoved version, as after any rewrite under the barrier, and
// a later commit draws a timestamp past ts. The redo hook gets the run's
// records at (epoch, ts) after those of every commit before the freeze
// and before those of every commit after it: commit order. The clock
// cannot pass MaxClock at ts: the run starts with a roll-over when the
// clock is exhausted (rewind; the barrier is already up), and otherwise
// now < MaxClock-1. No registered snapshot can see the commit, so it
// publishes no version: a snapshot registers only inside an attempt.
//
// The stall is the drain plus fn's run time. On a 2-vCPU host a
// 1 024-put kvstore batch that overwrites holds the barrier for a median
// 100–170 µs. fn rewrites no shard: the shards a kvstore batch tips grow
// after the run, each in a Quiesce of its own (Map.Grow): the longest
// freeze, run or growth, of a 65 536-key preload is a median 0.23–0.34 ms.
// What a concurrent point Get pays for it is the crossover table above
// kvstore's bulkOps.
func (tm *TM) Irrevocable(tx *Tx, fn func(*Tx)) {
	if tx.tm != tm {
		panic("core: descriptor belongs to a different TM")
	}
	if tx.inTx {
		panic("core: Irrevocable inside a transaction")
	}
	tx.mustBeIdle()
	o := tm.obsHook.Load()
	tm.Quiesce(func() {
		var t0 time.Time
		if o != nil {
			t0 = time.Now()
		}
		if tm.clk.exhausted(tm.maxClock) {
			tm.rewind()
		}
		tm.fz.enterFrozen()
		tx.open(false, false)
		tx.irrev = true
		tx.capAddr, tx.capN = 0, uint64(tm.space.Cap())
		// A panic rolls the run back (runBody) and unwinds through
		// Quiesce. fn meets no lock and cannot Retry, so it cannot abort.
		if !tx.runBody(fn) {
			panic("core: an irrevocable run aborted")
		}
		tx.commitIrrevocable()
		if o != nil {
			o.OnCommit(uint64(time.Since(t0)))
		}
	})
}

// logUndo records a's value before an irrevocable store overwrites it,
// unless a lies in the run's latest allocation, which rollback frees
// anyway (a kvstore node initialised right after its Alloc).
func (tx *Tx) logUndo(a mem.Addr) {
	if n := len(tx.allocs); n > 0 {
		if last := tx.allocs[n-1]; a-last.addr < mem.Addr(last.words) {
			return
		}
	}
	tx.undo = append(tx.undo, undoEntry{addr: a, old: tx.tm.space.Load(a)})
}

// commitIrrevocable commits an Irrevocable run at the next clock tick;
// the argument above Irrevocable says why nothing needs validating or
// publishing beyond the redo records.
func (tx *Tx) commitIrrevocable() {
	ts := tx.tm.clk.fetchInc()
	tx.publishRedo(ts)
	for _, f := range tx.frees {
		tx.tm.space.Free(f.addr, f.words)
	}
	tx.lastCommitTS = ts
	tx.stats.irrevCommits.Add(1)
	tx.finishCommit()
}

package core

// Redo capture: the commit-side half of the durability subsystem
// (internal/wal). Transactional code that wants its logical effects to
// survive a crash records them on the descriptor with Tx.Redo while the
// atomic block runs; if the attempt aborts, the records die with it, and
// when the attempt commits, the TM hands them — tagged with the commit's
// clock epoch and timestamp — to the hook installed by SetRedoHook.
//
// The hook is invoked during commit publication, while every write lock
// the transaction acquired is still held. That placement is load-bearing:
// two update transactions that touched a common key serialize through that
// key's stripe lock, so their hook invocations are ordered exactly like
// their commit timestamps. A write-ahead log fed by the hook therefore
// sees per-key history in commit order without any locking of its own —
// the same publication-order discipline the MVCC sidecar relies on
// (mvcc.Publish), extended from version records to redo records.

import (
	"sync/atomic"

	"tinystm/internal/txn"
)

// redoHolder wraps the hook so it can sit behind one atomic.Pointer.
type redoHolder struct{ hook txn.RedoHook }

// SetRedoHook installs (or, with nil, removes) the redo hook on a live TM.
// No freeze is needed: descriptors read the hook once per commit, and a
// commit that raced the installation simply published to the old value —
// callers attach the hook BEFORE admitting traffic they need logged
// (kvserver attaches it after WAL replay, before readiness flips).
func (tm *TM) SetRedoHook(h txn.RedoHook) {
	if h == nil {
		tm.redoHook.Store(nil)
		return
	}
	tm.redoHook.Store(&redoHolder{hook: h})
}

// ClockEpoch returns the TM's clock epoch: bumped under the freeze barrier
// whenever the clock rolls over, so (epoch, commit timestamp) pairs order
// totally within one process lifetime. Reconfigure keeps the epoch and the
// clock. Stable while the calling goroutine is inside a transaction.
func (tm *TM) ClockEpoch() uint64 { return tm.clockEpoch.Load() }

// ClockEpoch on a descriptor mirrors TM.ClockEpoch; inside a transaction
// the value cannot change (a roll-over bumps it behind the freeze barrier,
// which waits for in-flight transactions), so a checkpoint scan can stamp
// its snapshot with a stable (epoch, timestamp) position.
func (tx *Tx) ClockEpoch() uint64 { return tx.tm.clockEpoch.Load() }

// Redo records one logical state change of the current atomic block. The
// records accumulate per attempt (an aborted attempt discards them) and
// are delivered to the TM's redo hook if — and only if — this attempt
// commits as an update transaction. Calling Redo without a hook installed
// is a cheap no-op beyond the append.
func (tx *Tx) Redo(op txn.RedoOp) {
	if !tx.inTx {
		panic("core: Redo outside transaction")
	}
	tx.redo = append(tx.redo, op)
}

// RedoTicket returns the durability ticket the redo hook handed back for
// this descriptor's most recent commit (nil when the commit carried no
// redo records, no hook was installed, or the hook declined a ticket).
// Read it immediately after the atomic block: the next Begin on this
// descriptor clears it.
func (tx *Tx) RedoTicket() txn.DurableTicket { return tx.redoTicket }

// publishRedo hands the attempt's redo records to the installed hook at
// commit position (epoch, ts). Called from Commit while the write locks
// are held; see the package comment above for why.
func (tx *Tx) publishRedo(ts uint64) {
	h := tx.tm.redoHook.Load()
	if h == nil || len(tx.redo) == 0 {
		return
	}
	tx.redoTicket = h.hook(tx.tm.clockEpoch.Load(), ts, tx.redo)
	tx.redoRecords += uint64(len(tx.redo))
}

// redoHookPtr is the TM-side storage; declared here to keep every redo
// field greppable in one file.
type redoHookPtr = atomic.Pointer[redoHolder]

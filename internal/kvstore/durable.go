package kvstore

import (
	"fmt"

	"tinystm/internal/txn"
)

// Durability integration. With durability enabled, every Store operation
// records its EFFECTIVE state changes inside the atomic body via the
// STM's redo capture (core.Tx.Redo): a CAS that failed records nothing,
// an Add records the resulting value as a plain put, so replay is a pure
// fold of puts and deletes. The STM hands the records to the installed
// redo hook (the WAL) during commit publication and leaves a durability
// ticket on the descriptor; operations configured to ack-after-durable
// collect that ticket right after their atomic block. Update and
// ApplyInto return it unwaited, for a caller that acknowledges later and
// from elsewhere; Put/Delete/CAS/Add/Apply block on the sink until the
// commit's log records are fsynced.
//
// Structural transactions — shard growth, recovery loading — are never
// logged: they do not change the logical key/value state.

// DurabilitySink is how a Store waits for one commit's redo records to
// become durable. kvserver backs it with wal.Pending.Wait.
type DurabilitySink interface {
	WaitDurable(t txn.DurableTicket) error
}

// DurabilityError says a commit could not be made durable: the transaction
// IS committed in memory, but the write-ahead log failed before fsyncing
// its records, so the write must not be acked. It is the panic value of
// the blocking operations (Put, Apply, …), unwinding like
// txn.ErrSpaceExhausted; a caller that waits on a ticket from Update or
// ApplyInto itself wraps the wait's error in one for the same message.
type DurabilityError struct{ Err error }

func (e *DurabilityError) Error() string {
	return fmt.Sprintf("kvstore: commit not durable: %v", e.Err)
}

func (e *DurabilityError) Unwrap() error { return e.Err }

// EnableDurability turns on redo capture for all subsequent mutating
// operations, which then block on sink until their commit is durable
// before returning (Update and ApplyInto hand back the ticket instead).
// Returns an error for a nil sink. Call before admitting traffic that
// must be logged; not safe to toggle concurrently with operations.
func (s *Store[T]) EnableDurability(sink DurabilitySink) error {
	if sink == nil {
		return fmt.Errorf("kvstore: EnableDurability needs a sink")
	}
	s.sink = sink
	return nil
}

// redo records one effective state change if durability is on. Must be
// called inside the atomic body: records belong to the current attempt
// and die with it on abort.
func (s *Store[T]) redo(tx T, kind txn.RedoKind, key, val uint64) {
	if s.sink == nil {
		return
	}
	tx.Redo(txn.RedoOp{Kind: kind, Key: key, Val: val})
}

// ticket collects the durability ticket of tx's most recent commit. It
// must run after the operation's atomic block and before the descriptor's
// next Begin, which clears the ticket.
func (s *Store[T]) ticket(tx T) txn.DurableTicket {
	if s.sink == nil {
		return nil
	}
	return tx.RedoTicket()
}

// waitDurable blocks until the ticket's records are on stable storage,
// escalating failure as a DurabilityError panic.
func (s *Store[T]) waitDurable(t txn.DurableTicket) {
	if t == nil {
		return
	}
	if err := s.sink.WaitDurable(t); err != nil {
		panic(&DurabilityError{Err: err})
	}
}

// Load bulk-inserts recovered state, as put batches of bulkOps pairs
// through ApplyInto, so every full batch runs irrevocably. Recovery-only:
// must run before EnableDurability (reloading replayed records back into
// the log would double them) and before the store takes traffic.
func (s *Store[T]) Load(pairs map[uint64]uint64) {
	if s.sink != nil {
		panic("kvstore: Load after EnableDurability")
	}
	ops := make([]Op, 0, bulkOps)
	res := make([]OpResult, bulkOps)
	for k, v := range pairs {
		ops = append(ops, Op{Kind: OpPut, Key: k, Val: v})
		if len(ops) == bulkOps {
			s.ApplyInto(ops, res)
			ops = ops[:0]
		}
	}
	if len(ops) > 0 {
		s.ApplyInto(ops, res[:len(ops)])
	}
}

// CheckpointScan captures the full table in ONE consistent transaction —
// the snapshot a checkpoint may be built from, in table order — plus the
// (clock epoch, snapshot timestamp) position it was taken at. ok reports
// whether the scan really was a single consistent snapshot: without
// snapshot mode it returns ok=false and the caller must not checkpoint
// from it (per-shard fallbacks are not mutually consistent).
func (s *Store[T]) CheckpointScan() (pairs []KV, epoch, ts uint64, ok bool) {
	if !s.sys.SnapshotsEnabled() {
		return nil, 0, 0, false
	}
	o := s.borrow()
	defer s.recycle(o)
	s.sys.AtomicSnap(o.tx, func(tx T) {
		// Sized from the last scan, so a steady table is one allocation.
		pairs = make([]KV, 0, s.ckptPairs.Load())
		ts, _ = tx.Snapshot()
		epoch = tx.ClockEpoch()
		s.m.Range(tx, func(k, v uint64) bool {
			pairs = append(pairs, KV{Key: k, Val: v})
			return true
		})
	})
	s.ckptPairs.Store(int64(len(pairs)))
	return pairs, epoch, ts, true
}

// Package a exercises redoscope violations: Redo calls outside
// update-transaction bodies.
package a

import "stm"

func inReadOnlyBody(tm *stm.TM, tx *stm.Tx) {
	tm.AtomicRO(tx, func(tx *stm.Tx) {
		tx.Redo(stm.RedoOp{Key: 1}) // want `Redo inside AtomicRO body`
	})
}

func inSnapshotBody(tm *stm.TM, tx *stm.Tx) {
	tm.AtomicSnap(tx, func(tx *stm.Tx) {
		tx.Redo(stm.RedoOp{Key: 1}) // want `Redo inside AtomicSnap body`
	})
}

func logPut(tx *stm.Tx, k, v uint64) {
	tx.Redo(stm.RedoOp{Key: k, Val: v})
}

func reachedThroughHelper(tm *stm.TM, tx *stm.Tx) {
	body := func(tx *stm.Tx) {
		logPut(tx, 1, 2)
	}
	tm.AtomicRO(tx, body) // want `AtomicRO body reaches Redo`
}

func structuralTransaction(tm *stm.TM) {
	tx := tm.NewTx()
	defer tx.Release()
	tx.Begin(false)
	tx.Redo(stm.RedoOp{Key: 1}) // want `Redo on descriptor "tx" driven by a raw Begin`
	tx.Commit()
}

// updateBodiesMayRedo is the legitimate shape: redo records belong to
// update-transaction bodies.
func updateBodiesMayRedo(tm *stm.TM, tx *stm.Tx) {
	tm.Atomic(tx, func(tx *stm.Tx) {
		tx.Store(1, 2)
		tx.Redo(stm.RedoOp{Key: 1, Val: 2})
	})
}

// irrevocableBodiesMayRedo: an Irrevocable body is an update body, and
// its records go to the log like an Atomic body's.
func irrevocableBodiesMayRedo(tm *stm.TM, tx *stm.Tx) {
	tm.Irrevocable(tx, func(tx *stm.Tx) {
		tx.Store(1, 2)
		tx.Redo(stm.RedoOp{Key: 1, Val: 2})
	})
}

// twoReaders binds its body field to two literals, one that only reads
// and then one that logs: a runner called through the field may run
// either, so the second is walked too.
type twoReaders struct{ body func(*stm.Tx) }

func newTwoReaders(log bool) *twoReaders {
	r := &twoReaders{}
	r.body = func(tx *stm.Tx) { _ = tx.Load(1) }
	if log {
		r.body = func(tx *stm.Tx) { logPut(tx, 1, 2) }
	}
	return r
}

func twoBoundBodies(tm *stm.TM, tx *stm.Tx, r *twoReaders) {
	tm.AtomicRO(tx, r.body) // want `AtomicRO body reaches Redo`
}

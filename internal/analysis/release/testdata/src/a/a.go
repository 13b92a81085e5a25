// Package a exercises release violations: minted descriptors that are
// not handed back on every path.
package a

import "stm"

func leakAtFunctionEnd(tm *stm.TM) {
	tx := tm.NewTx() // want `descriptor "tx" from NewTx is not released before the function returns`
	tm.Atomic(tx, func(tx *stm.Tx) { tx.Store(1, 2) })
}

func leakOnOnePath(tm *stm.TM, cond bool) int {
	tx := tm.NewTx()
	if cond {
		return 0 // want `descriptor "tx" from NewTx is not released on this return path`
	}
	tx.Release()
	return 1
}

func leakPerIteration(tm *stm.TM, n int) {
	for i := 0; i < n; i++ {
		tx := tm.NewTx() // want `descriptor "tx" from NewTx is not released before the next loop iteration`
		tx.Begin(false)
		tx.Commit()
	}
}

func releasedOnlyOnNonPanicPaths(tm *stm.TM) {
	tx := tm.NewTx()
	tm.Atomic(tx, func(tx *stm.Tx) { tx.Store(1, 2) })
	tx.Release() // want `released only on non-panic paths`
}

func deferIsClean(tm *stm.TM) {
	tx := tm.NewTx()
	defer tx.Release()
	tm.Atomic(tx, func(tx *stm.Tx) { tx.Store(1, 2) })
}

func deferCoversEarlyReturn(tm *stm.TM, cond bool) {
	tx := tm.NewTx()
	defer tx.Release()
	if cond {
		return
	}
	tx.Begin(false)
	tx.Commit()
}

func bothBranchesRelease(tm *stm.TM, cond bool) {
	tx := tm.NewTx()
	if cond {
		tx.Release()
	} else {
		tx.Release()
	}
}

// escape: ownership moves to the caller, so this function owes no
// release.
func mintForCaller(tm *stm.TM) *stm.Tx {
	tx := tm.NewTx()
	return tx
}

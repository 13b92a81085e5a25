package core

// IrrevocableUndoLen returns the undo log length of the descriptor the
// last irrevocable run used, or -1 when none ran: a descriptor keeps its
// log and its irrev mark until its next attempt begins.
func (tm *TM) IrrevocableUndoLen() int {
	n := -1
	for _, tx := range tm.descriptors() {
		if tx.irrev {
			n = len(tx.undo)
		}
	}
	return n
}

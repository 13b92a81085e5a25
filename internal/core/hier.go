package core

// Hierarchical locking (paper Section 3.2).
//
// Beside the lock array of l entries the TM keeps a much smaller array of
// h counters. Every address maps to one counter, consistently with its
// lock mapping (same lock implies same counter). Each transaction records,
// on first access (read or write) to a bucket, the counter's current
// value; lock acquisitions increment the shared counter. Validation may
// then skip a whole bucket when the counter changed only by this
// transaction's own increments: no competing transaction can have locked
// any address in it since the snapshot. Read sets are partitioned per
// bucket so the skip drops entire slices.
//
// Deviation from the paper: the paper increments the counter only on a
// transaction's *first* write per bucket (a write-mask bit), and
// validation skips when the counter is unchanged
// or changed by exactly that own first-write increment. That formulation
// has an unsound window: a writer W that performed its first bucket write
// (and increment) *before* a reader R snapshots the counter can acquire
// further locks in the same bucket afterwards without incrementing again;
// R's fast path then sees an unchanged counter and skips validating a
// read that W made stale. This implementation therefore increments on
// *every* lock acquisition and tracks the transaction's own per-bucket
// acquisition count: the skip condition counter == snapshot + own
// acquisitions makes every foreign acquisition after the snapshot
// visible. The cost model the paper describes (more atomic operations for
// larger h) is unchanged in character; writers touching w distinct locks
// in a bucket pay w increments instead of one.

// Both sides of the counter handshake are ordered so that a foreign
// acquisition can never hide inside a snapshot: a transaction snapshots a
// bucket's counter BEFORE it reads (or CASes) any lock word in the
// bucket, and a writer increments the counter only AFTER its CAS took the
// lock. A reader that saw a lock word unowned therefore holds a snapshot
// that predates the acquiring CAS, and so the increment that follows it.
// A writer caught between its CAS and its increment has not drawn a
// commit timestamp yet, so a validation that skips the bucket in that
// window still serializes before the writer.

// hierTouch returns the bucket (= read-set partition) of addr, snapshotting
// the bucket's counter on first contact. It must run before the attempt's
// first look at any lock word in the bucket: Load calls it ahead of its
// first loadLock, acquire ahead of the CAS. Only called with hierarchical
// locking enabled; with h == 1 everything lives in partition 0 and Begin
// pre-arms the single active bucket.
func (tx *Tx) hierTouch(addr uint64) uint64 {
	g := tx.geo
	b := g.hierIndex(addr)
	if !tx.rmask.has(b) {
		tx.rmask.set(b)
		tx.hsnap[b] = g.hier[b].v.Load()
		tx.hactive = append(tx.hactive, uint8(b))
	}
	return b
}

// hierRecordWrite publishes one lock acquisition in bucket b: the shared
// counter tells competing readers a lock in the bucket changed hands, the
// own count keeps the counter == snapshot + own-acquisitions skip rule
// exact. Called only after a successful casLock — an increment that
// precedes the CAS can land inside a reader's snapshot while the reader
// still sees the lock word unowned, and validation would then skip the
// bucket the write made stale. Only called with hierarchical locking
// enabled.
func (tx *Tx) hierRecordWrite(b uint64) {
	tx.geo.hier[b].v.Add(1)
	tx.hacq[b]++
}

// ReadSetSize returns the number of read-set entries of the current
// attempt (diagnostics; read-only attempts keep none).
func (tx *Tx) ReadSetSize() int {
	n := 0
	for _, p := range tx.rparts {
		n += len(p)
	}
	return n
}

// WriteSetSize returns the number of write-set / owned-lock entries of the
// current attempt.
func (tx *Tx) WriteSetSize() int {
	if tx.design == WriteThrough {
		return len(tx.owned)
	}
	return len(tx.wset)
}

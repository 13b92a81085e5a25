package core

import (
	"sync/atomic"

	"tinystm/internal/txn"
)

// txStats holds one descriptor's counters. They are written only by the
// owning thread but read by TM.Stats from arbitrary goroutines, so all
// access is atomic; an uncontended atomic add costs roughly one locked
// instruction and the hot loops (validation) batch into locals first.
type txStats struct {
	commits          atomic.Uint64
	aborts           atomic.Uint64
	abortsByKind     [txn.NAbortKinds]atomic.Uint64
	extensions       atomic.Uint64
	retryWaits       atomic.Uint64
	retryWaitNs      atomic.Uint64
	locksValidated   atomic.Uint64
	locksSkipped     atomic.Uint64
	dupReadsSkipped  atomic.Uint64
	snapLiveReads    atomic.Uint64
	snapVersionReads atomic.Uint64
	versionedCommits atomic.Uint64
	irrevCommits     atomic.Uint64
	redoRecords      atomic.Uint64
}

func (s *txStats) snapshotInto(out *txn.Stats) {
	out.Commits += s.commits.Load()
	out.Aborts += s.aborts.Load()
	for i := range s.abortsByKind {
		out.AbortsByKind[i] += s.abortsByKind[i].Load()
	}
	out.Extensions += s.extensions.Load()
	out.RetryWaits += s.retryWaits.Load()
	out.RetryWaitNs += s.retryWaitNs.Load()
	out.LocksValidated += s.locksValidated.Load()
	out.LocksSkipped += s.locksSkipped.Load()
	out.DupReadsSkipped += s.dupReadsSkipped.Load()
	out.SnapshotLiveReads += s.snapLiveReads.Load()
	out.SnapshotVersionReads += s.snapVersionReads.Load()
	out.VersionedCommits += s.versionedCommits.Load()
	out.IrrevocableCommits += s.irrevCommits.Load()
	out.RedoRecords += s.redoRecords.Load()
}

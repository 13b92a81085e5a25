// Package txn defines the transaction interface shared by the TinySTM and
// TL2 implementations, along with the statistics structures both report.
//
// Transactional data structures (package intset, package vacation) and the
// benchmark harness are generic over the Tx constraint, so one body serves
// both STMs. That is not static dispatch: Go stencils generics by GC
// shape, every pointer type argument shares one shape, and so a tx.Load
// in a generic body is an indirect call through the instantiation's
// dictionary.
//
// What only TinySTM offers — snapshot transactions, irrevocable runs,
// redo capture — is not part of these interfaces: package kvstore, its
// one user, names it in its own System and Tx constraints.
package txn

import "errors"

// ErrSpaceExhausted is the panic value of a transactional Alloc that
// found the memory space full, shared by both STM implementations. It is
// a typed sentinel (not a bare string) so long-running servers can
// distinguish "out of arena" — survivable: fail the request, keep serving
// — from an STM invariant violation, which must keep propagating. It
// unwinds through the Atomic retry loop like any foreign panic: the
// failed transaction is rolled back first.
var ErrSpaceExhausted = errors.New("txn: transactional memory space exhausted")

// Tx is the operation set a transaction exposes to transactional code.
// All addresses are word addresses in the STM's mem.Space (represented as
// uint64 here to avoid an import cycle with concrete STMs; mem.Addr is a
// uint64 under the hood and concrete implementations use it directly).
type Tx interface {
	// Load returns the value of the word at addr within this transaction's
	// snapshot. On conflict the transaction aborts by panicking with the
	// STM's private sentinel, unwinding to the Atomic retry loop.
	Load(addr uint64) uint64
	// Store writes the word at addr within this transaction.
	Store(addr uint64, v uint64)
	// Alloc reserves n contiguous fresh words. Allocations made by a
	// transaction that aborts are released automatically.
	Alloc(n int) uint64
	// Free releases the n-word block at addr at commit time. The block
	// remains allocated if the transaction aborts. Freeing acquires the
	// covering locks (a free is semantically an update).
	Free(addr uint64, n int)
}

// System abstracts an STM runtime for the benchmark harness: it mints
// per-thread transaction descriptors and runs atomic blocks with retry.
type System[T Tx] interface {
	// NewTx registers and returns a transaction descriptor for one worker.
	NewTx() T
	// Atomic runs fn transactionally, retrying on conflict until commit.
	Atomic(tx T, fn func(T))
	// AtomicRO runs fn as a read-only transaction (no read set; aborts
	// instead of extending; upgrades to an update transaction if fn
	// writes). Implementations may fall back to Atomic semantics.
	AtomicRO(tx T, fn func(T))
	// Stats returns a snapshot of global commit/abort counters.
	Stats() Stats
}

// Release hands a descriptor back to its system when the STM recycles
// them (core.Tx does; the Tx interface does not require it). Without it,
// repeated NewTx lifetimes on one long-lived system leak a descriptor slot
// each until the slot space is exhausted.
func Release(tx Tx) {
	if r, ok := tx.(interface{ Release() }); ok {
		r.Release()
	}
}

// RedoKind names one logical redo operation a committed transaction
// contributes to a write-ahead log.
type RedoKind uint8

const (
	// RedoPut records "key now holds val". Read-modify-writes (CAS, Add)
	// log their EFFECTIVE result as a put, so replay is a pure fold of
	// puts and deletes with no operation semantics of its own.
	RedoPut RedoKind = iota
	// RedoDelete records "key is now absent".
	RedoDelete
)

// String returns the wire name used in log dumps and tests.
func (k RedoKind) String() string {
	switch k {
	case RedoPut:
		return "put"
	case RedoDelete:
		return "delete"
	default:
		return "unknown"
	}
}

// RedoOp is one logical state change of a committed transaction: the redo
// record a durability layer persists and replays after a crash.
type RedoOp struct {
	Kind RedoKind
	Key  uint64
	Val  uint64
}

// KV is one key/value pair of a table scan or a checkpoint.
type KV struct {
	Key uint64 `json:"key"`
	Val uint64 `json:"val"`
}

// OpResult is the outcome of one operation of a key-value batch: Val
// carries a Get's value and an Add's result, Found whether a Get or Delete
// found the key, OK whether a CAS swapped or a Put inserted. The store
// writes it and the wire encodes it, so a server answers a batch from the
// slots the store filled.
type OpResult struct {
	Val   uint64 `json:"val"`
	Found bool   `json:"found"`
	OK    bool   `json:"ok"`
}

// DurableTicket is an opaque handle a RedoHook returns for one committed
// transaction's redo records; the caller that needs ack-after-durable
// semantics hands it back to the durability layer and blocks until the
// records reach stable storage.
type DurableTicket any

// RedoHook receives one committed update transaction's redo records,
// tagged with its clock epoch and commit timestamp. The STM calls it
// during commit publication WHILE THE WRITE LOCKS ARE STILL HELD: for any
// two transactions that touched a common key, the hook calls are therefore
// ordered exactly like their commit timestamps, which is what lets a
// write-ahead log reconstruct per-key history from append order. The hook
// must be fast and must not panic; the ops slice is only valid for the
// duration of the call (the descriptor reuses it) and must be copied if
// retained.
type RedoHook func(epoch, ts uint64, ops []RedoOp) DurableTicket

// AbortKind classifies why a transaction aborted.
type AbortKind int

const (
	// AbortReadConflict: a load found the covering lock owned by another
	// transaction, or the lock word changed while reading.
	AbortReadConflict AbortKind = iota
	// AbortWriteConflict: a store found the covering lock owned by another
	// transaction (encounter time) or lock acquisition failed (commit time).
	AbortWriteConflict
	// AbortValidate: read-set validation failed at commit or extension.
	AbortValidate
	// AbortExtend: a read observed a version newer than the snapshot and
	// the snapshot could not be extended (includes read-only aborts).
	AbortExtend
	// AbortExplicit: user code requested a retry.
	AbortExplicit
	// AbortFrozen: the STM froze (clock roll-over or reconfiguration).
	AbortFrozen
	// AbortUpgrade: a read-only transaction attempted a write and restarts
	// in update mode.
	AbortUpgrade
	// AbortSnapshotTooOld: a snapshot-mode read-only transaction needed a
	// version the MVCC sidecar has already trimmed past (or waited out its
	// spin budget behind an in-flight writer). The retry loop restarts it
	// on a fresh snapshot; it is the only way a snapshot transaction can
	// abort.
	AbortSnapshotTooOld
	nAbortKinds
)

// NAbortKinds is the number of abort classifications.
const NAbortKinds = int(nAbortKinds)

// String returns a short human-readable label.
func (k AbortKind) String() string {
	switch k {
	case AbortReadConflict:
		return "read-conflict"
	case AbortWriteConflict:
		return "write-conflict"
	case AbortValidate:
		return "validate"
	case AbortExtend:
		return "extend"
	case AbortExplicit:
		return "explicit"
	case AbortFrozen:
		return "frozen"
	case AbortUpgrade:
		return "upgrade"
	case AbortSnapshotTooOld:
		return "snapshot-too-old"
	default:
		return "unknown"
	}
}

// Stats is a snapshot of an STM's global counters. Counters are summed
// across all transaction descriptors.
type Stats struct {
	Commits      uint64
	Aborts       uint64
	AbortsByKind [NAbortKinds]uint64
	// Extensions counts successful snapshot extensions (TinySTM only).
	Extensions uint64
	// RetryWaits counts retries that first waited for the lock that beat
	// the failed attempt to change, and RetryWaitNs the nanoseconds those
	// waits took (TinySTM only).
	RetryWaits  uint64
	RetryWaitNs uint64
	// LocksValidated counts read-set entries checked one-by-one during
	// validation; LocksSkipped counts entries skipped via the hierarchical
	// fast path (Figure 12's two series).
	LocksValidated uint64
	LocksSkipped   uint64
	// DupReadsSkipped counts read-set appends suppressed because the
	// stripe matched the partition's newest entry (duplicate-read
	// suppression; TinySTM only).
	DupReadsSkipped uint64
	// RollOvers counts clock roll-over events; Reconfigs counts dynamic
	// parameter changes.
	RollOvers uint64
	Reconfigs uint64
	// VersionsPublished and VersionsTrimmed count pre-images delivered to
	// and evicted from the MVCC sidecar (TinySTM with Snapshots enabled).
	VersionsPublished uint64
	VersionsTrimmed   uint64
	// SnapshotLiveReads counts snapshot-mode reads served from the live
	// word (no writer had touched the stripe past the snapshot);
	// SnapshotVersionReads counts reads served from the sidecar.
	SnapshotLiveReads    uint64
	SnapshotVersionReads uint64
	// VersionedCommits counts update commits that saw a registered
	// snapshot and so stamped and published to the sidecar; zero means
	// the sidecar stayed cold.
	VersionedCommits uint64
	// IrrevocableCommits counts commits that ran alone behind the freeze
	// barrier (TinySTM's Irrevocable, a bulk batch); Commits includes them.
	IrrevocableCommits uint64
	// RedoRecords counts redo records handed to the attached RedoHook by
	// committed update transactions (TinySTM with a durability layer
	// attached).
	RedoRecords uint64
}

// Sub returns s - o field-wise; used to compute per-interval deltas.
func (s Stats) Sub(o Stats) Stats {
	d := Stats{
		Commits:              s.Commits - o.Commits,
		Aborts:               s.Aborts - o.Aborts,
		Extensions:           s.Extensions - o.Extensions,
		RetryWaits:           s.RetryWaits - o.RetryWaits,
		RetryWaitNs:          s.RetryWaitNs - o.RetryWaitNs,
		LocksValidated:       s.LocksValidated - o.LocksValidated,
		LocksSkipped:         s.LocksSkipped - o.LocksSkipped,
		DupReadsSkipped:      s.DupReadsSkipped - o.DupReadsSkipped,
		RollOvers:            s.RollOvers - o.RollOvers,
		Reconfigs:            s.Reconfigs - o.Reconfigs,
		VersionsPublished:    s.VersionsPublished - o.VersionsPublished,
		VersionsTrimmed:      s.VersionsTrimmed - o.VersionsTrimmed,
		SnapshotLiveReads:    s.SnapshotLiveReads - o.SnapshotLiveReads,
		SnapshotVersionReads: s.SnapshotVersionReads - o.SnapshotVersionReads,
		VersionedCommits:     s.VersionedCommits - o.VersionedCommits,
		IrrevocableCommits:   s.IrrevocableCommits - o.IrrevocableCommits,
		RedoRecords:          s.RedoRecords - o.RedoRecords,
	}
	for i := range s.AbortsByKind {
		d.AbortsByKind[i] = s.AbortsByKind[i] - o.AbortsByKind[i]
	}
	return d
}

// Add returns s + o field-wise.
func (s Stats) Add(o Stats) Stats {
	d := Stats{
		Commits:              s.Commits + o.Commits,
		Aborts:               s.Aborts + o.Aborts,
		Extensions:           s.Extensions + o.Extensions,
		RetryWaits:           s.RetryWaits + o.RetryWaits,
		RetryWaitNs:          s.RetryWaitNs + o.RetryWaitNs,
		LocksValidated:       s.LocksValidated + o.LocksValidated,
		LocksSkipped:         s.LocksSkipped + o.LocksSkipped,
		DupReadsSkipped:      s.DupReadsSkipped + o.DupReadsSkipped,
		RollOvers:            s.RollOvers + o.RollOvers,
		Reconfigs:            s.Reconfigs + o.Reconfigs,
		VersionsPublished:    s.VersionsPublished + o.VersionsPublished,
		VersionsTrimmed:      s.VersionsTrimmed + o.VersionsTrimmed,
		SnapshotLiveReads:    s.SnapshotLiveReads + o.SnapshotLiveReads,
		SnapshotVersionReads: s.SnapshotVersionReads + o.SnapshotVersionReads,
		VersionedCommits:     s.VersionedCommits + o.VersionedCommits,
		IrrevocableCommits:   s.IrrevocableCommits + o.IrrevocableCommits,
		RedoRecords:          s.RedoRecords + o.RedoRecords,
	}
	for i := range s.AbortsByKind {
		d.AbortsByKind[i] = s.AbortsByKind[i] + o.AbortsByKind[i]
	}
	return d
}

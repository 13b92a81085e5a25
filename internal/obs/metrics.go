package obs

import (
	"sync/atomic"

	"tinystm/internal/txn"
)

// TMObs bundles the STM-level instruments one TM records into: the
// committed-attempt duration histogram, one aborted-attempt duration
// histogram per abort cause, the world-freeze histogram of Reconfigure,
// and (optionally) the flight recorder. An
// installed *TMObs sits behind one atomic pointer in the TM; a nil one
// costs the transaction loop a single predictable branch.
type TMObs struct {
	// CommitNs is the duration of successful attempts (Begin to
	// published Commit), in nanoseconds.
	CommitNs *Histogram
	// AbortNs[k] is the duration of attempts that rolled back with
	// cause k, in nanoseconds.
	AbortNs [txn.NAbortKinds]*Histogram
	// FreezeNs is how long each freeze — a Reconfigure, a kvstore shard's
	// growth, a bulk batch (an irrevocable run), a clock roll-over — held
	// the world frozen, from the start of
	// the freeze to the release, in nanoseconds: what one geometry move or
	// one growth costs every transaction that wanted to run meanwhile.
	FreezeNs *Histogram
	// Rec, when non-nil, receives the sampled per-transaction event
	// trace.
	Rec *Recorder
}

// NewTMObs allocates every histogram; rec may be nil (no flight
// recording, histograms only).
func NewTMObs(rec *Recorder) *TMObs {
	o := &TMObs{CommitNs: NewHistogram(), FreezeNs: NewHistogram(), Rec: rec}
	for i := range o.AbortNs {
		o.AbortNs[i] = NewHistogram()
	}
	return o
}

// OnCommit records a successful attempt's duration.
func (o *TMObs) OnCommit(durNs uint64) { o.CommitNs.Record(durNs) }

// OnAbort records a failed attempt's duration under its cause.
func (o *TMObs) OnAbort(durNs uint64, cause txn.AbortKind) {
	if cause < 0 || int(cause) >= len(o.AbortNs) {
		cause = 0
	}
	o.AbortNs[cause].Record(durNs)
}

// SampleTx draws the flight-recorder sampling decision for one atomic
// block; false when no recorder is attached.
func (o *TMObs) SampleTx() bool { return o.Rec != nil && o.Rec.Sample() }

// Trace appends one event to the flight recorder (no-op without one).
func (o *TMObs) Trace(e Event) {
	if o.Rec != nil {
		o.Rec.Record(e)
	}
}

// ShardHeat is the per-shard heat map: one op counter and one abort
// counter per store shard, recorded by kvstore from each operation's
// attempt count. It is the measurement the per-shard tuning-partition
// work needs — which shards are hot, and where the aborts concentrate.
type ShardHeat struct {
	ops    []atomic.Uint64
	aborts []atomic.Uint64
}

// NewShardHeat builds counters for `shards` shards.
func NewShardHeat(shards int) *ShardHeat {
	return &ShardHeat{ops: make([]atomic.Uint64, shards), aborts: make([]atomic.Uint64, shards)}
}

// Record notes one completed single-key operation against shard sh that
// took `attempts` attempts to commit: one op, attempts-1 aborts.
func (h *ShardHeat) Record(sh uint64, attempts int) {
	if sh >= uint64(len(h.ops)) {
		return
	}
	h.ops[sh].Add(1)
	if attempts > 1 {
		h.aborts[sh].Add(uint64(attempts - 1))
	}
}

// Shards returns the shard count.
func (h *ShardHeat) Shards() int { return len(h.ops) }

// Ops returns shard i's completed-operation count.
func (h *ShardHeat) Ops(i int) uint64 { return h.ops[i].Load() }

// Aborts returns shard i's accumulated abort (retry) count.
func (h *ShardHeat) Aborts(i int) uint64 { return h.aborts[i].Load() }

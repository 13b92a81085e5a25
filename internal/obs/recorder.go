package obs

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"tinystm/internal/txn"
)

// EventKind names one step of a sampled transaction's life.
type EventKind uint8

// The flight-recorder event kinds. A sampled atomic block emits EvBegin
// on its first attempt, EvRetry at the start of every later attempt,
// EvAbort for each failed attempt (Cause carries the classification —
// conflicts, validation, ...), and EvCommit
// when it finally publishes.
const (
	EvBegin EventKind = iota
	EvRetry
	EvAbort
	EvCommit
)

// String returns the wire name of the event kind.
func (k EventKind) String() string {
	switch k {
	case EvBegin:
		return "begin"
	case EvRetry:
		return "retry"
	case EvAbort:
		return "abort"
	case EvCommit:
		return "commit"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one flight-recorder entry: a timestamped step of one sampled
// transaction, with the STM geometry that was live when it happened.
type Event struct {
	// Seq is the recorder-global sequence number (1-based, gap-free
	// among retained events).
	Seq uint64
	// TimeUnixNano is the wall-clock timestamp.
	TimeUnixNano int64
	Kind         EventKind
	// Cause classifies an EvAbort (meaningless otherwise).
	Cause txn.AbortKind
	// Slot is the transaction descriptor's slot; Attempt the 1-based
	// attempt number within the atomic block.
	Slot    uint32
	Attempt uint32
	// DurNs is the attempt's duration for EvAbort/EvCommit (0 for
	// begin/retry, which mark attempt starts).
	DurNs uint64
	// Locks/Shifts/Hier are the lock-table geometry live at the event.
	Locks  uint64
	Shifts uint32
	Hier   uint64
}

// String renders one human-readable trace line.
func (e Event) String() string {
	s := fmt.Sprintf("#%d t=%d slot=%d attempt=%d %s", e.Seq, e.TimeUnixNano, e.Slot, e.Attempt, e.Kind)
	if e.Kind == EvAbort {
		s += " cause=" + e.Cause.String()
	}
	if e.Kind == EvAbort || e.Kind == EvCommit {
		s += fmt.Sprintf(" dur=%dns", e.DurNs)
	}
	return s + fmt.Sprintf(" geo=(%d,%d,%d)", e.Locks, e.Shifts, e.Hier)
}

// recSlot is one ring entry: a seqlock version word plus the event
// packed into atomic words, so concurrent writers and dump readers stay
// race-free without any lock. ver holds the claiming sequence number
// while the words are consistent and 0 while a writer is mid-store; a
// reader accepts a slot only when ver reads the expected sequence on
// both sides of the word loads.
type recSlot struct {
	ver atomic.Uint64
	w   [6]atomic.Uint64
}

// Recorder is the bounded lock-free flight recorder: a power-of-two ring
// of seqlock slots plus a sampling tick. Writers claim a slot with one
// atomic add and overwrite the oldest entry; there is no reader
// coordination and no backpressure — dumping is best-effort forensics.
type Recorder struct {
	every uint64
	mask  uint64
	tick  atomic.Uint64
	pos   atomic.Uint64
	slots []recSlot
}

// NewRecorder builds a recorder retaining the last `capacity` events
// (rounded up to a power of two, floor 16) and sampling one atomic
// block in `every` (floor 1 = every block).
func NewRecorder(capacity int, every uint64) *Recorder {
	if capacity < 16 {
		capacity = 16
	}
	c := 1 << bits.Len(uint(capacity-1)) // next power of two
	if every < 1 {
		every = 1
	}
	return &Recorder{every: every, mask: uint64(c - 1), slots: make([]recSlot, c)}
}

// Cap returns the ring capacity.
func (r *Recorder) Cap() int { return len(r.slots) }

// SampleEvery returns the sampling rate (1 = every transaction).
func (r *Recorder) SampleEvery() uint64 { return r.every }

// Sample draws the per-transaction sampling decision: true for one
// atomic block in every; the caller then records that block's whole
// lifecycle. One atomic add.
func (r *Recorder) Sample() bool {
	return (r.tick.Add(1)-1)%r.every == 0
}

// Record appends one event, overwriting the oldest when the ring is
// full. Lock-free and allocation-free: one atomic add to claim the slot
// and eight atomic stores. e.Seq is assigned by the recorder.
func (r *Recorder) Record(e Event) {
	seq := r.pos.Add(1)
	s := &r.slots[(seq-1)&r.mask]
	s.ver.Store(0) // mark torn while the words change
	s.w[0].Store(uint64(e.TimeUnixNano))
	s.w[1].Store(uint64(e.Kind) | uint64(e.Cause)<<8 | uint64(e.Attempt)<<32)
	s.w[2].Store(uint64(e.Slot) | uint64(e.Shifts)<<32)
	s.w[3].Store(e.DurNs)
	s.w[4].Store(e.Locks)
	s.w[5].Store(e.Hier)
	s.ver.Store(seq)
}

// Recorded returns how many events have ever been recorded.
func (r *Recorder) Recorded() uint64 { return r.pos.Load() }

// Dump returns up to limit of the most recent events, oldest first
// (limit <= 0 means the whole retained window). Entries a concurrent
// writer is overwriting mid-read are skipped — a dump under load is a
// best-effort snapshot, never a torn one.
func (r *Recorder) Dump(limit int) []Event {
	end := r.pos.Load()
	n := uint64(len(r.slots))
	if end < n {
		n = end
	}
	if limit > 0 && uint64(limit) < n {
		n = uint64(limit)
	}
	out := make([]Event, 0, n)
	for seq := end - n + 1; seq <= end; seq++ {
		s := &r.slots[(seq-1)&r.mask]
		if s.ver.Load() != seq {
			continue // overwritten (or being written) by a newer claim
		}
		var w [6]uint64
		for i := range w {
			w[i] = s.w[i].Load()
		}
		if s.ver.Load() != seq {
			continue // a writer moved in between the loads
		}
		out = append(out, Event{
			Seq:          seq,
			TimeUnixNano: int64(w[0]),
			Kind:         EventKind(w[1] & 0xff),
			Cause:        txn.AbortKind((w[1] >> 8) & 0xff),
			Attempt:      uint32(w[1] >> 32),
			Slot:         uint32(w[2] & 0xffffffff),
			Shifts:       uint32(w[2] >> 32),
			DurNs:        w[3],
			Locks:        w[4],
			Hier:         w[5],
		})
	}
	return out
}

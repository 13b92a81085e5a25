// Package cm implements pluggable contention management for the word-based
// STMs of this repository: the policy that decides how a transaction reacts
// to a conflict (abort and retry, wait for the owner, or request the
// owner's abort where legal) and what happens between retries.
//
// The source paper fixes conflict resolution — "a transaction can try to
// wait for some time or abort immediately; we use the latter option" — and
// tunes only the lock-table geometry. This package makes the resolution
// policy a first-class, runtime-switchable tuning dimension alongside
// (#locks, #shifts, h): the literature (Scherer & Scott's Karma/Timestamp
// family; Yoo & Lee's adaptive transaction scheduling) shows the policy
// choice dominates throughput once abort rates climb.
//
// The package is STM-agnostic: it knows nothing about lock words, clocks
// or memory spaces. An STM embeds one State per transaction descriptor,
// drives the bookkeeping calls (BeginAttempt/EndAttempt, NoteAbort/
// NoteCommit) from its transaction lifecycle, and consults the active
// Policy at its conflict checkpoints. Kills are cooperative: a winning
// policy *requests* the owner's abort (RequestKill); the victim notices at
// its next conflict or commit checkpoint — never inside a critical
// publication sequence — so a kill is always legal.
//
// What a policy sees is not the whole retry: core's retry loop (not TL2's)
// additionally waits, after OnAbort, for the lock that beat the attempt to
// change before it restarts (TinySTM's CM_DELAY). That wait is what keeps
// Suicide's immediate abort from turning into an immediate re-collision.
package cm

import (
	"fmt"
	"strings"
	"sync/atomic"
)

// Kind identifies one of the concrete contention-management policies.
type Kind int

const (
	// Suicide aborts self immediately on any conflict (the paper's
	// choice, and the default): minimal overhead. It is livelock-prone
	// under heavy contention where the retry restarts at once (TL2);
	// core's retry first waits for the lock that beat it, which removes
	// most re-collisions.
	Suicide Kind = iota
	// Backoff is Suicide plus bounded randomized exponential backoff
	// between retries.
	Backoff
	// Karma accumulates priority from work done (reads + writes),
	// carried across retries: a transaction that keeps losing grows
	// karma until it out-prioritizes its competitors, then waits out or
	// kills the lock owner instead of aborting.
	Karma
	// Timestamp is older-transaction-wins wait/die: descriptors draw an
	// age at the first attempt of an atomic block and keep it across
	// retries; on conflict the older side waits (and requests the
	// younger's abort) while the younger side dies immediately.
	Timestamp
	// Serializer is ATS-style adaptive serialization: when the observed
	// global abort rate crosses a threshold, repeatedly-aborting
	// transactions funnel through a single serialization token instead
	// of livelocking against each other.
	Serializer
	nKinds
)

// NKinds is the number of policies.
const NKinds = int(nKinds)

// AllKinds lists every policy in escalation order: each successive entry
// invests more bookkeeping/waiting to resolve heavier contention.
var AllKinds = []Kind{Suicide, Backoff, Karma, Timestamp, Serializer}

// String returns the flag-friendly lower-case policy name.
func (k Kind) String() string {
	switch k {
	case Suicide:
		return "suicide"
	case Backoff:
		return "backoff"
	case Karma:
		return "karma"
	case Timestamp:
		return "timestamp"
	case Serializer:
		return "serializer"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Valid reports whether k names a concrete policy.
func (k Kind) Valid() bool { return k >= Suicide && k < nKinds }

// ParseKind parses a policy name as accepted by the -cm flags.
func ParseKind(s string) (Kind, error) {
	for _, k := range AllKinds {
		if strings.EqualFold(s, k.String()) {
			return k, nil
		}
	}
	return 0, fmt.Errorf("cm: unknown policy %q (want suicide, backoff, karma, timestamp or serializer)", s)
}

// ConflictKind tells the policy which access found the foreign lock.
type ConflictKind int

const (
	// ReadConflict: a transactional load found the covering lock owned.
	ReadConflict ConflictKind = iota
	// WriteConflict: a store (or commit-time lock acquisition) found the
	// covering lock owned.
	WriteConflict
)

// Decision is the policy's verdict on one conflict observation.
type Decision int

const (
	// Abort: abort self now; the atomic retry loop re-runs the block.
	Abort Decision = iota
	// Wait: let the owner run, then re-check the lock; the STM calls
	// OnConflict again (with spins+1) if it is still held.
	Wait
	// KillOther: request the owner's cooperative abort, then behave like
	// Wait — the victim releases its locks when it notices the request.
	KillOther
)

// String names the decision (diagnostics and tests).
func (d Decision) String() string {
	switch d {
	case Abort:
		return "abort"
	case Wait:
		return "wait"
	case KillOther:
		return "kill"
	default:
		return fmt.Sprintf("Decision(%d)", int(d))
	}
}

// Sampler supplies monotonically increasing global (commits, aborts)
// aggregates; the Serializer policy differentiates them to estimate the
// live abort rate. core.TM's CommitAbortCounts has exactly this shape.
type Sampler func() (commits, aborts uint64)

// Knobs tunes the concrete policies. The zero value selects the defaults
// documented on each field.
type Knobs struct {
	// BackoffFloorExp and BackoffCapExp bound the Backoff policy's
	// randomized spin window: retry n draws from [0, 2^min(floor-1+n,
	// cap)). Defaults 6 and 16; core's backoff regression tests pin them.
	BackoffFloorExp uint
	BackoffCapExp   uint
	// Patience bounds how many times a winning Karma/Timestamp
	// transaction re-checks a conflicting lock (with a yield between
	// re-checks) before giving up and aborting anyway: the liveness
	// backstop against waiting on an owner that never advances.
	// Default 1024.
	Patience int
	// SerializerAbortRatio is the global abort ratio aborts/(commits +
	// aborts) above which the Serializer starts funneling repeat
	// offenders through the token. Default 0.5.
	SerializerAbortRatio float64
	// SerializerMinAborts is how many consecutive aborts a transaction
	// must suffer before it is eligible for the token. Default 2.
	SerializerMinAborts uint64
}

func (k Knobs) withDefaults() Knobs {
	if k.BackoffFloorExp == 0 {
		k.BackoffFloorExp = 6
	}
	if k.BackoffCapExp == 0 {
		k.BackoffCapExp = 16
	}
	// Clamp to sane shifts: anything >= 64 would overflow the window to
	// zero (divide-by-zero in Spins), and >32 is already absurd spinning.
	if k.BackoffFloorExp > 32 {
		k.BackoffFloorExp = 32
	}
	if k.BackoffCapExp > 32 {
		k.BackoffCapExp = 32
	}
	if k.BackoffFloorExp > k.BackoffCapExp {
		k.BackoffFloorExp = k.BackoffCapExp
	}
	if k.Patience == 0 {
		k.Patience = 1024
	}
	if k.SerializerAbortRatio == 0 {
		k.SerializerAbortRatio = 0.5
	}
	if k.SerializerMinAborts == 0 {
		k.SerializerMinAborts = 2
	}
	return k
}

// Policy decides conflict resolution and observes transaction outcomes.
// Implementations must be safe for concurrent use by many descriptors; the
// self/other State arguments carry all per-transaction state.
type Policy interface {
	// Kind identifies the policy.
	Kind() Kind
	// OnStart is called once per atomic block, at the first attempt.
	OnStart(self *State)
	// OnConflict is called when self finds a lock owned by another
	// transaction. other is the owner's state, nil when the owner could
	// not be identified (it must then be treated as unbeatable); spins
	// counts how many times this same conflict has already been
	// re-checked after a Wait/KillOther.
	OnConflict(self, other *State, k ConflictKind, spins int) Decision
	// OnAbort is called after a failed attempt has been rolled back,
	// before the retry. It may block (backoff spinning, waiting for the
	// serialization token).
	OnAbort(self *State)
	// OnCommit is called after a successful commit.
	OnCommit(self *State)
	// Detach releases any policy-held resources recorded in self (e.g.
	// the serialization token). STMs call it when a descriptor switches
	// to a different policy instance or is released for reuse.
	Detach(self *State)
}

// New constructs the policy for kind k. sample may be nil; the Serializer
// then triggers on consecutive aborts alone.
func New(k Kind, kn Knobs, sample Sampler) Policy {
	kn = kn.withDefaults()
	switch k {
	case Suicide:
		return suicide{}
	case Backoff:
		return backoff{kn: kn}
	case Karma:
		return karma{kn: kn}
	case Timestamp:
		return &timestamp{kn: kn}
	case Serializer:
		return newSerializer(kn, sample)
	default:
		panic(fmt.Sprintf("cm: unknown policy kind %d", int(k)))
	}
}

// State is the per-descriptor contention-management state an STM embeds in
// its transaction descriptor. The owning goroutine drives the lifecycle
// calls; the atomic fields are additionally read (and doomed written) by
// competing transactions' policies.
type State struct {
	// epoch publishes the current attempt's identity while the attempt
	// is active (zero when idle). Attempt identities are unique per
	// descriptor (a private sequence), so a kill request recorded for an
	// attempt that already finished can never doom a later one.
	epoch atomic.Uint64
	// doomed holds the epoch of the attempt a competitor asked to die.
	doomed atomic.Uint64
	// prio is accumulated work (Karma): accesses performed by aborted
	// attempts of the current atomic block. Reset at commit.
	prio atomic.Uint64
	// birth is the Timestamp policy's age: drawn once per atomic block,
	// kept across retries, cleared at commit. Smaller is older; zero
	// means unassigned.
	birth atomic.Uint64

	// Owner-private fields (never touched by competitors).
	seq    uint64 // attempt-epoch generator
	aborts uint64 // consecutive aborts of the current atomic block
	rng    uint64 // xorshift state for randomized backoff
	token  bool   // Serializer: holding the serialization token
}

// Seed initializes the descriptor's private backoff generator. STMs call
// it once per descriptor with a distinct value (the slot index): the
// whole point of randomized backoff is that CONCURRENT descriptors draw
// DIFFERENT spin sequences — identically seeded generators replay the
// same interleaving every retry, exactly the lockstep the jitter exists
// to break.
func (s *State) Seed(v uint64) {
	s.rng = 0x9e3779b97f4a7c15 ^ v
	if s.rng == 0 {
		s.rng = 1
	}
}

// BeginAttempt opens a new attempt: a fresh epoch is published so stale
// kill requests (targeting earlier attempts) are ignored.
func (s *State) BeginAttempt() {
	s.seq++
	s.epoch.Store(s.seq)
}

// EndAttempt closes the current attempt (commit or rollback).
func (s *State) EndAttempt() {
	s.epoch.Store(0)
}

// Doomed reports whether a competitor requested the abort of the attempt
// currently in flight. STMs check it at conflict and commit checkpoints —
// never inside a publication sequence — and abort when it fires.
func (s *State) Doomed() bool {
	e := s.epoch.Load()
	return e != 0 && s.doomed.Load() == e
}

// Epoch returns the identity of the attempt currently in flight (zero
// when idle). Kill initiators snapshot it while they can still prove the
// conflict (the victim owns the contended lock) and pass it to
// RequestKill, pinning the request to exactly that attempt. Nil-safe.
func (s *State) Epoch() uint64 {
	if s == nil {
		return 0
	}
	return s.epoch.Load()
}

// RequestKill asks the transaction behind s to abort the attempt
// identified by epoch (from a prior Epoch() observation). Returns false
// when that attempt is no longer in flight — a victim that committed and
// moved on is never doomed by a stale verdict. Safe from any goroutine;
// the remaining check-to-store race is benign: a stale epoch stored into
// doomed matches no current attempt. Nil-safe.
func (s *State) RequestKill(epoch uint64) bool {
	if s == nil || epoch == 0 || s.epoch.Load() != epoch {
		return false
	}
	s.doomed.Store(epoch)
	return true
}

// NoteAbort records a failed attempt: work accesses accrue as Karma
// priority and the consecutive-abort count grows. Called by the STM after
// rollback, before the policy's OnAbort.
func (s *State) NoteAbort(work uint64) {
	s.aborts++
	if work != 0 {
		s.prio.Add(work)
	}
}

// NoteCommit resets the per-block state: accumulated priority, age and the
// consecutive-abort count all clear on success.
func (s *State) NoteCommit() {
	s.aborts = 0
	s.prio.Store(0)
	s.birth.Store(0)
}

// Priority returns the accumulated Karma priority.
func (s *State) Priority() uint64 { return s.prio.Load() }

// Birth returns the Timestamp age (zero when unassigned).
func (s *State) Birth() uint64 { return s.birth.Load() }

// ConsecAborts returns the consecutive-abort count of the current block.
func (s *State) ConsecAborts() uint64 { return s.aborts }

// HoldsToken reports whether s holds the Serializer token (tests).
func (s *State) HoldsToken() bool { return s.token }

package cm

import (
	"math"
	"sync"
	"sync/atomic"
)

// suicide aborts self immediately on every conflict: the paper's fixed
// choice, kept as the zero-cost default.
type suicide struct{}

func (suicide) Kind() Kind                                             { return Suicide }
func (suicide) OnStart(*State)                                         {}
func (suicide) OnConflict(_, _ *State, _ ConflictKind, _ int) Decision { return Abort }
func (suicide) OnAbort(*State)                                         {}
func (suicide) OnCommit(*State)                                        {}
func (suicide) Detach(*State)                                          {}

// backoff is suicide plus bounded randomized exponential backoff between
// retries, desynchronizing hot conflicts so they stop re-colliding.
type backoff struct{ kn Knobs }

func (backoff) Kind() Kind                                             { return Backoff }
func (backoff) OnStart(*State)                                         {}
func (backoff) OnConflict(_, _ *State, _ ConflictKind, _ int) Decision { return Abort }
func (backoff) OnCommit(*State)                                        {}
func (backoff) Detach(*State)                                          {}

func (b backoff) OnAbort(s *State) {
	// s.aborts was just incremented by NoteAbort: the first failed
	// attempt draws from the floor window, later ones from doubled
	// windows up to the cap.
	SpinWait(Spins(&s.rng, int(s.aborts), b.kn.BackoffFloorExp, b.kn.BackoffCapExp))
}

// karma prioritizes by work performed: every access of an aborted attempt
// accrues one karma point (NoteAbort), carried across retries and cleared
// at commit. A conflicting transaction with strictly more karma than the
// lock owner requests the owner's abort and waits it out; one with less
// (or equal) karma aborts itself, banking its work as karma for the next
// round. Repeated losers therefore grow until they win — the
// starvation-resistance property Scherer & Scott designed Karma for.
type karma struct{ kn Knobs }

func (karma) Kind() Kind      { return Karma }
func (karma) OnStart(*State)  {}
func (karma) OnCommit(*State) {}
func (karma) Detach(*State)   {}

// OnAbort backs off randomly before the retry (Karma + backoff is Scherer
// & Scott's "Polka", their best performer). The randomization is
// load-bearing, not a tweak: equal-priority conflicts abort both sides,
// and on a few-core host identically timed retries replay the exact
// interleaving forever — a deterministic lockstep livelock. The jittered
// window desynchronizes the retries so one side gets through.
func (k karma) OnAbort(s *State) {
	SpinWait(Spins(&s.rng, int(s.aborts), k.kn.BackoffFloorExp, k.kn.BackoffCapExp))
}

func (k karma) OnConflict(self, other *State, _ ConflictKind, spins int) Decision {
	if other == nil {
		return Abort
	}
	// Banked priority only, on BOTH sides. Counting our own in-flight
	// work but not the owner's would let any small
	// challenger out-prioritize a large first-attempt owner — the exact
	// inversion of the starvation protection Karma promises — and makes
	// symmetric conflicts mutually "winning" (both kill, both wait).
	// With banked-only comparison, ties go to the lock owner
	// (encounter-time ownership is the tiebreak) and losers bank their
	// work via NoteAbort, growing until they genuinely out-rank.
	mine := self.prio.Load()
	theirs := other.prio.Load()
	if mine <= theirs {
		return Abort
	}
	// We out-prioritize the owner: ask it to die and wait boundedly for
	// the lock to clear (the bound is the liveness backstop — the owner
	// may be about to commit, which also clears the lock).
	if spins >= k.kn.Patience {
		return Abort
	}
	if spins == 0 {
		return KillOther
	}
	return Wait
}

// timestamp is older-transaction-wins wait/die: each atomic block draws a
// unique age at its first attempt and keeps it across retries (so a block
// can only get relatively older, never starve). On conflict the older side
// requests the younger owner's abort and waits; the younger side dies
// immediately. Ages are totally ordered, so waits cannot cycle.
type timestamp struct {
	kn Knobs
}

// timestampAge is the age source for every Timestamp instance. Package
// level on purpose: a live SetCM builds a fresh policy instance, and an
// instance-local counter restarting at zero would make new blocks read as
// older than long-retrying ones whose birth predates the switch —
// inverting wait/die's starvation freedom exactly when it matters. A
// process-wide monotone counter keeps all births totally ordered across
// switches (and, harmlessly, across TMs).
var timestampAge atomic.Uint64

func (t *timestamp) Kind() Kind      { return Timestamp }
func (t *timestamp) OnCommit(*State) {}
func (t *timestamp) Detach(*State)   {}

// OnAbort backs off randomly before the retry: the age order picks the
// winner, but dying sides still need desynchronization or they re-collide
// in lockstep (see karma.OnAbort).
func (t *timestamp) OnAbort(s *State) {
	SpinWait(Spins(&s.rng, int(s.aborts), t.kn.BackoffFloorExp, t.kn.BackoffCapExp))
}

func (t *timestamp) OnStart(self *State) {
	if self.birth.Load() == 0 {
		self.birth.Store(timestampAge.Add(1))
	}
}

func (t *timestamp) OnConflict(self, other *State, _ ConflictKind, spins int) Decision {
	if other == nil {
		return Abort
	}
	sb := self.birth.Load()
	if sb == 0 {
		// Untracked self (low-level Begin outside an atomic block):
		// behave like suicide.
		return Abort
	}
	if ob := other.birth.Load(); ob != 0 && ob < sb {
		return Abort // the owner is older: die, keeping our age
	}
	// We are older than the owner (or the owner is untracked, i.e.
	// youngest): win — request its abort and wait the lock out.
	if spins >= t.kn.Patience {
		return Abort
	}
	if spins == 0 {
		return KillOther
	}
	return Wait
}

// serializer implements ATS-style adaptive serialization (Yoo & Lee):
// while the global abort ratio stays healthy it behaves like suicide, but
// once the ratio crosses the threshold, transactions that keep aborting
// must acquire a single serialization token before retrying and hold it
// through commit — contended transactions then run one at a time instead
// of livelocking, trading parallelism for guaranteed progress.
type serializer struct {
	kn     Knobs
	sample Sampler

	// tokenMu is the serialization token. It is locked in OnAbort (by
	// the descriptor's goroutine, with no transactional state held) and
	// released at the token holder's next commit or detach.
	tokenMu sync.Mutex

	// Abort-ratio estimation over windows of the sampled aggregates;
	// ratioBits caches the latest estimate (float64 bits) so OnAbort
	// reads it without recomputing per call. probes gates how often the
	// sampler actually runs — see ratio().
	statMu       sync.Mutex
	lastC, lastA uint64
	ratioBits    atomic.Uint64
	probes       atomic.Uint64
}

// ratioWindow is the minimum number of (commit + abort) events between
// abort-ratio refreshes: tiny windows would make the trigger noisy.
// ratioProbeMask makes only one in every 8 ratio() calls pay for the
// sampler at all — the function runs on every abort of every eligible
// transaction, precisely during the storms this policy targets, and the
// sampler may be O(#descriptors) (tl2).
const (
	ratioWindow    = 64
	ratioProbeMask = 7
)

func newSerializer(kn Knobs, sample Sampler) *serializer {
	return &serializer{kn: kn, sample: sample}
}

func (s *serializer) Kind() Kind     { return Serializer }
func (s *serializer) OnStart(*State) {}

func (s *serializer) OnConflict(_, _ *State, _ ConflictKind, _ int) Decision {
	return Abort
}

// ratio returns the current abort-ratio estimate, refreshing it at most
// on every eighth call (and then only if the refresh slot is free and a
// full event window accumulated) — aborting goroutines must never queue
// behind each other here. Without a sampler the policy serializes on
// consecutive aborts alone (ratio pinned to 1).
func (s *serializer) ratio() float64 {
	if s.sample == nil {
		return 1
	}
	if s.probes.Add(1)&ratioProbeMask == 0 && s.statMu.TryLock() {
		c, a := s.sample()
		if dc, da := c-s.lastC, a-s.lastA; dc+da >= ratioWindow {
			s.lastC, s.lastA = c, a
			s.ratioBits.Store(math.Float64bits(float64(da) / float64(dc+da)))
		}
		s.statMu.Unlock()
	}
	return math.Float64frombits(s.ratioBits.Load())
}

func (s *serializer) OnAbort(st *State) {
	if st.token {
		return // already serialized: keep the token until commit
	}
	if st.aborts < s.kn.SerializerMinAborts {
		return
	}
	if s.ratio() < s.kn.SerializerAbortRatio {
		return
	}
	s.tokenMu.Lock()
	st.token = true
}

func (s *serializer) OnCommit(st *State) {
	if st.token {
		st.token = false
		s.tokenMu.Unlock()
	}
}

func (s *serializer) Detach(st *State) {
	if st.token {
		st.token = false
		s.tokenMu.Unlock()
	}
}

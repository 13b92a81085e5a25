// Package mvcc implements the commit-ordered version sidecar that backs
// the STM's wait-free read-only snapshot mode.
//
// The single-version TL2/TinySTM design makes long read-only transactions
// the worst-case workload: every concurrent update invalidates their read
// set, so a full-table scan under write pressure aborts repeatedly and may
// starve. The sidecar removes that pathology the way dynamic-multiversion
// systems (Multiverse) do: committing update transactions publish the
// values they supersede — pre-images — tagged with the commit-timestamp
// interval during which each value was current. A snapshot reader picks a
// start timestamp S once and then serves every read either from the live
// word or from the newest retained version whose validity interval
// contains S. No read set, no validation, no aborts — unless S falls
// behind the retained horizon.
//
// Two structures carry the load:
//
//   - written: a flat array with one word per arena word holding the
//     commit timestamp of the address's last transactional write (its
//     birth, for freshly allocated words, stamped by Born: a birth has no
//     pre-image and never passes through Publish). It answers the dominant
//     snapshot-read question — "is the live value still the value at S?"
//     — with one lock-free atomic load, even when a NEIGHBOR under the
//     same lock stripe has pushed the stripe version past S. It also
//     gives publishers the exact validity start of each pre-image.
//   - per-stripe shards of retained pre-images: a FIFO dequeue in
//     publication order (bounded by a live-tunable version budget) plus a
//     per-address chain (each entry links its predecessor), so a stale
//     read walks only that address's versions, newest first. Only reads
//     of addresses actually overwritten since the snapshot take the
//     shard lock — work proportional to true conflicts.
//
// Trimming is epoch-based via reclaim.SnapshotRegistry: versions still
// inside an active snapshot's window are kept while the shard is below a
// hard cap, and every dropped version raises the shard's horizon so a
// reader that could have needed it fails fast with a snapshot-too-old
// verdict instead of reading a gap. When NO snapshot is registered at
// all, publishers skip version retention entirely and only maintain the
// written array — a snapshot beginning mid-skip may lose its first
// attempt to a conservative miss, never read wrong data.
package mvcc

import (
	"fmt"
	"sync"
	"sync/atomic"
	"unsafe"

	"tinystm/internal/mem"
	"tinystm/internal/reclaim"
)

// Version is one pre-image delivered by a committing update transaction:
// Val was the committed value of Addr until the publishing commit's
// timestamp superseded it (the validity start is recovered exactly from
// the written array).
type Version struct {
	// Stripe is the lock index covering Addr; it selects the shard.
	Stripe uint64
	// Addr is the word address.
	Addr uint64
	// Val is the superseded value.
	Val uint64
	// From is the version the covering stripe carried when the publisher
	// acquired it: a conservative lower bound on when Val became current,
	// used only when the written array has no exact record yet.
	From uint64
}

// entry is one retained version: Val was current for snapshots in
// [from, until). prev is the absolute dequeue position of the previous
// entry for the same address (-1 when none), forming the per-address
// lookup chain.
type entry struct {
	addr  uint64
	val   uint64
	from  uint64
	until uint64
	prev  int64
}

// shard is one independently locked slice of the version store.
type shard struct {
	mu sync.Mutex
	// entries[head:] are the live versions in publication order. The
	// dequeue position of entries[i] is absBase+i — absolute positions
	// are stable across trims and compactions, so the prev chains and
	// the newest map never need rewriting. Trims advance head; the slice
	// is compacted only when the dead prefix outgrows the live half
	// (amortized O(1) per trimmed version — an explicit copy per trim
	// would go quadratic whenever a pinning snapshot holds a shard at
	// its hard cap).
	entries []entry
	head    int
	absBase int64
	// horizon is the trim watermark: a snapshot with start < horizon may
	// be missing a version this shard already dropped and must abort
	// (snapshot too old). Monotone non-decreasing between Resets.
	horizon uint64
	// newest maps an address to the absolute position of its newest
	// retained entry (the chain head). Advisory: a missing address reads
	// as a conservative miss, so the map is cleared wholesale when it
	// outgrows its cap and on Reset.
	newest map[uint64]int64
	// minVer/minVal/minOK cache the snapshot registry's Min() keyed by
	// its change counter, so steady-state trimming does not take the
	// registry lock on every publication.
	minVer uint64
	minVal uint64
	minOK  bool
}

// Config parameterizes a Store.
type Config struct {
	// Words is the arena size the sidecar covers (mem.Space.Cap): the
	// written array holds one timestamp per word. Required.
	Words int
	// Shards is the number of independently locked version-store shards
	// (power of two). Default 64.
	Shards int
	// Budget is the per-shard retained-version budget. Trimming starts
	// once a shard exceeds it; the hard cap (budget * hardCapMult) bounds
	// the overshoot granted to versions pinned by active snapshots.
	// Default 512. Live-tunable via SetBudget.
	Budget int
}

const (
	defaultShards = 64
	defaultBudget = 512
	// hardCapMult bounds how far a shard may overshoot its budget to
	// protect versions an active snapshot still needs; past it, trimming
	// proceeds anyway and the snapshot aborts too-old on its next miss.
	hardCapMult = 4
	// mapCapMult bounds each shard's newest map at mapCapMult*budget
	// distinct addresses (minimum mapCapFloor); overflow clears it — the
	// index is an optimization, not a correctness requirement.
	mapCapMult  = 8
	mapCapFloor = 4096
	// MaxBudget bounds SetBudget (and the tuner's walk): past a point a
	// bigger buffer only adds memory.
	MaxBudget = 1 << 20
)

// Store is the sharded version sidecar. All methods are safe for
// concurrent use.
type Store struct {
	// written[a] is the commit timestamp of the last transactional write
	// to arena word a (0: never written since the last Reset). Lock-free
	// on both sides; the one word per arena word is the sidecar's main
	// memory cost, paid only when Config.Snapshots is on. Mapped outside
	// the Go heap like the arena, and owned by the Store (see package mem).
	written []atomic.Uint64

	shards []shard
	mask   uint64
	budget atomic.Int64

	published atomic.Uint64
	trimmed   atomic.Uint64

	reg reclaim.SnapshotRegistry
}

// New builds a Store with cfg (zero fields replaced by defaults).
func New(cfg Config) *Store {
	if cfg.Words <= 0 {
		panic("mvcc: Config.Words is required")
	}
	if cfg.Shards <= 0 {
		cfg.Shards = defaultShards
	}
	if cfg.Shards&(cfg.Shards-1) != 0 {
		panic(fmt.Sprintf("mvcc: Shards (%d) must be a power of two", cfg.Shards))
	}
	if cfg.Budget <= 0 {
		cfg.Budget = defaultBudget
	}
	s := &Store{
		shards: make([]shard, cfg.Shards),
		mask:   uint64(cfg.Shards - 1),
	}
	s.written = unsafe.Slice((*atomic.Uint64)(unsafe.Pointer(unsafe.SliceData(mem.MapWords(s, cfg.Words)))), cfg.Words)
	s.budget.Store(int64(cfg.Budget))
	return s
}

// Budget returns the current per-shard version budget.
func (s *Store) Budget() int { return int(s.budget.Load()) }

// SetBudget replaces the per-shard version budget on the live store.
// Shrinking takes effect lazily: each shard trims down to the new budget
// on its next publication.
func (s *Store) SetBudget(n int) error {
	if n < 1 || n > MaxBudget {
		return fmt.Errorf("mvcc: budget (%d) out of range [1,%d]", n, MaxBudget)
	}
	s.budget.Store(int64(n))
	return nil
}

// Counts returns the lifetime published/trimmed version totals.
func (s *Store) Counts() (published, trimmed uint64) {
	return s.published.Load(), s.trimmed.Load()
}

// Retained reports the number of versions currently held across all
// shards (diagnostics, leak tests).
func (s *Store) Retained() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n += len(sh.entries) - sh.head
		sh.mu.Unlock()
	}
	return n
}

// Enter registers an active snapshot at timestamp ts for descriptor slot.
func (s *Store) Enter(slot int, ts uint64) { s.reg.Enter(slot, ts) }

// Leave clears slot's snapshot registration. Idempotent; Tx.Release calls
// it defensively so a recycled descriptor can never pin the horizon.
func (s *Store) Leave(slot int) { s.reg.Leave(slot) }

// EnsureSlots sizes the snapshot registry for at least n descriptor slots.
func (s *Store) EnsureSlots(n int) { s.reg.Ensure(n) }

// ActiveSnapshots reports how many snapshots are currently registered.
func (s *Store) ActiveSnapshots() int { return s.reg.Live() }

// MinSnapshot returns the oldest registered snapshot (tests).
func (s *Store) MinSnapshot() (uint64, bool) { return s.reg.Min() }

// Publish records the pre-images superseded by a commit at timestamp ts.
// Callers MUST deliver versions while still holding the covering write
// locks (after writing values to memory, before releasing the locks at
// ts): per-stripe publication then follows lock-acquisition order, which
// keeps each address's written record, prev chain and `until` sequence
// monotone, and means a snapshot reader that observes a released stripe
// version newer than its snapshot will always find the matching
// pre-image already retained (or a raised horizon), never a publication
// still in flight.
//
// While no snapshot is registered, only the written array is maintained:
// versions whose whole validity window nobody can ever observe are not
// worth retaining, and the skip keeps the no-reader overhead of an
// update commit at one atomic store per written word. A snapshot racing
// its registration against the skip decision can miss at most the racy
// commits' versions and restarts once on a fresh snapshot.
//
// Births are not versions: words the commit allocated have no pre-image
// (their prior bits belong to no reachable object), and their commit
// timestamp goes to the written array through Born, under the same
// locks-held rule.
func (s *Store) Publish(ts uint64, vs []Version) {
	if len(vs) == 0 {
		return
	}
	if s.reg.Live() == 0 {
		for i := range vs {
			s.written[vs[i].Addr].Store(ts)
		}
		return
	}
	// Group consecutive same-shard versions under one lock acquisition:
	// writes to one data structure cluster in nearby stripes.
	i := 0
	for i < len(vs) {
		si := vs[i].Stripe & s.mask
		j := i + 1
		for j < len(vs) && vs[j].Stripe&s.mask == si {
			j++
		}
		sh := &s.shards[si]
		sh.mu.Lock()
		if sh.newest == nil {
			sh.newest = make(map[uint64]int64, 64)
		}
		mapCap := int(s.budget.Load()) * mapCapMult
		if mapCap < mapCapFloor {
			mapCap = mapCapFloor
		}
		for k := i; k < j; k++ {
			v := &vs[k]
			// The written record is the exact validity start of this
			// pre-image; the stripe version is the conservative fallback
			// for addresses last written before the sidecar existed.
			from := v.From
			if w := s.written[v.Addr].Load(); w != 0 && w < from {
				from = w
			}
			prev := int64(-1)
			if abs, ok := sh.newest[v.Addr]; ok {
				prev = abs
			} else if len(sh.newest) >= mapCap {
				clear(sh.newest)
			}
			s.written[v.Addr].Store(ts)
			if from >= ts {
				// An empty validity window serves no snapshot.
				continue
			}
			abs := sh.absBase + int64(len(sh.entries))
			sh.entries = append(sh.entries, entry{addr: v.Addr, val: v.Val, from: from, until: ts, prev: prev})
			sh.newest[v.Addr] = abs
			s.published.Add(1)
		}
		s.trimLocked(sh)
		sh.mu.Unlock()
		i = j
	}
}

// Born records that the n words from addr were allocated by the commit at
// ts: each word's written record becomes ts. That is the exact validity
// start of the word's first supersede, and it proves to snapshot readers
// that the live value covers any snapshot at or after ts, however far
// aliasing writes have moved the word's stripe. Like Publish, it must run
// while the commit still holds its write locks: other transactions reach
// a new block only through a word the commit has locked, so no later
// writer of a born word can stamp it first and have Born move its record
// back.
func (s *Store) Born(ts, addr uint64, n int) {
	for a := addr; a < addr+uint64(n); a++ {
		s.written[a].Store(ts)
	}
}

// trimLocked enforces the budget on one shard. Caller holds sh.mu.
func (s *Store) trimLocked(sh *shard) {
	budget := int(s.budget.Load())
	if len(sh.entries)-sh.head <= budget {
		return
	}
	// The oldest-active-snapshot question is answered from the shard's
	// cache while the registry's change counter is unchanged: trimming
	// runs on every over-budget publication and must not funnel all
	// publishers through the registry lock.
	if ver := s.reg.Version(); ver != sh.minVer {
		sh.minVal, sh.minOK = s.reg.Min()
		sh.minVer = ver
	}
	minSnap, anyActive := sh.minVal, sh.minOK
	hardCap := budget * hardCapMult
	drop := 0
	for len(sh.entries)-sh.head-drop > budget {
		e := &sh.entries[sh.head+drop]
		if anyActive && e.until > minSnap && len(sh.entries)-sh.head-drop <= hardCap {
			// Still inside an active snapshot's window: keep it while the
			// overshoot stays bounded. Past the hard cap the snapshot
			// loses — it will abort too-old and retry fresh.
			break
		}
		if e.until > sh.horizon {
			sh.horizon = e.until
		}
		drop++
	}
	if drop > 0 {
		sh.head += drop
		s.trimmed.Add(uint64(drop))
		if live := len(sh.entries) - sh.head; sh.head > live {
			// Compact once the dead prefix dominates; each live entry is
			// moved at most once per halving. Absolute positions are
			// preserved by advancing absBase.
			sh.absBase += int64(sh.head)
			n := copy(sh.entries, sh.entries[sh.head:])
			sh.entries = sh.entries[:n]
			sh.head = 0
		}
	}
}

// ReadResult classifies one sidecar lookup.
type ReadResult int

const (
	// ReadHit: the returned value was current at the snapshot.
	ReadHit ReadResult = iota
	// ReadLiveValid: the address's last write provably predates the
	// snapshot — its CURRENT live value was already current at the
	// snapshot, and the caller may serve it from memory (re-validating
	// the lock word). This is the lock-free common case when only a
	// NEIGHBOR under the same stripe moved the stripe version.
	ReadLiveValid
	// ReadMiss: the value current at the snapshot was never retained
	// (written before the sidecar could record it, or superseded while
	// no snapshot was registered). On an unlocked stripe this is
	// persistent — publication precedes lock release, so waiting cannot
	// help; behind an in-flight writer the pre-image may still arrive.
	ReadMiss
	// ReadTooOld: the shard has trimmed past the snapshot; the version —
	// if one ever existed — may be gone and the snapshot must restart.
	ReadTooOld
)

// String names the outcome (tests, diagnostics).
func (r ReadResult) String() string {
	switch r {
	case ReadHit:
		return "hit"
	case ReadLiveValid:
		return "live-valid"
	case ReadMiss:
		return "miss"
	case ReadTooOld:
		return "too-old"
	default:
		return fmt.Sprintf("ReadResult(%d)", int(r))
	}
}

// Read serves a snapshot read of addr at snapshot snap. The dominant
// outcome — the address itself has not been written past snap, whatever
// its stripe version says — is decided by one lock-free atomic load of
// the written record; only reads of addresses genuinely overwritten
// since the snapshot take the shard lock and walk the address's chain,
// newest first.
func (s *Store) Read(stripe, addr, snap uint64) (val uint64, res ReadResult) {
	if w := s.written[addr].Load(); w != 0 && w <= snap {
		// Last write at w <= snap and (per-address monotonicity) nothing
		// newer at the moment of the load: the live word is the value at
		// snap. The caller re-validates the lock word, which catches a
		// supersede racing this decision.
		return 0, ReadLiveValid
	}
	sh := &s.shards[stripe&s.mask]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if snap < sh.horizon {
		return 0, ReadTooOld
	}
	abs, ok := sh.newest[addr]
	if !ok {
		return 0, ReadMiss
	}
	for ; abs >= sh.absBase+int64(sh.head); abs = sh.entries[abs-sh.absBase].prev {
		e := &sh.entries[abs-sh.absBase]
		if e.from <= snap {
			if snap < e.until {
				return e.val, ReadHit
			}
			// Per-address untils are monotone: older entries end even
			// earlier, so no interval can cover snap.
			break
		}
	}
	return 0, ReadMiss
}

// Written returns addr's written record: the commit timestamp of its last
// transactional write or birth, 0 when none was recorded (tests).
func (s *Store) Written(addr uint64) uint64 { return s.written[addr].Load() }

// Horizon returns the trim watermark of the shard covering stripe (tests).
func (s *Store) Horizon(stripe uint64) uint64 {
	sh := &s.shards[stripe&s.mask]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.horizon
}

// Reset drops every retained version and rewinds all horizons. Only
// callable at a global quiescence point (the STM's freeze barrier):
// clock roll-over and reconfiguration rewind the clock, making old-epoch
// version INTERVALS meaningless, and no snapshot can be active behind
// the barrier.
//
// The written array is deliberately NOT wiped — that would make every
// Reconfigure's stop-the-world pause O(arena words) instead of
// O(shards+budget) — because stale records are harmless: every
// transactional write of the new epoch refreshes its word's record
// (retention-skip and Born included), so a stale record can only
// describe a word NOT written since the reset. Such a word's live value
// has been its committed value since before the barrier, which makes it
// valid at every new-epoch snapshot: a stale `w <= snap` live-valid
// verdict serves a correct value, a stale `w > snap` just falls through
// to the conservative miss path, and a stale `w` tightening a first
// new-epoch supersede's interval only extends it over a span the
// superseded value provably covered.
func (s *Store) Reset() {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		sh.entries = sh.entries[:0]
		sh.head = 0
		sh.absBase = 0
		sh.horizon = 0
		clear(sh.newest) // old-epoch chain positions are gone with the entries
		sh.mu.Unlock()
	}
}

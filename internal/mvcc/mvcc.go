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
//     publication order (bounded by a fixed per-shard version budget) plus a
//     per-address chain (each entry links its predecessor), so a stale
//     read walks only that address's versions, newest first. Only reads
//     of addresses actually overwritten since the snapshot take the
//     shard lock — work proportional to true conflicts.
//
// Trimming is epoch-based via reclaim.SnapshotRegistry: versions still
// inside an active snapshot's window are kept while the shard is below a
// hard cap, and every dropped version raises the shard's horizon so a
// reader that could have needed it fails fast with a snapshot-too-old
// verdict instead of reading a gap.
//
// Versions cost nothing while nobody reads them. When NO snapshot is
// registered, the STM's commits skip the sidecar altogether: no written
// record, no birth, no retained pre-image (Multiverse's "unversioned until
// a reader needs versions"). A workload that never takes a snapshot leaves
// the written array's pages untouched, so the mapping holds no memory. The
// argument that a snapshot registering later still reads exactly the
// values committed at its start is the block above Publish.
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
	// Default 512. Fixed for the Store's life.
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
)

// Store is the sharded version sidecar. All methods are safe for
// concurrent use.
type Store struct {
	// written[a] is arena word a's written record: the commit timestamp
	// of its last versioned write or birth, 0 when it never had one. It
	// is exact or stale, never ahead (see above Publish). Lock-free on
	// both sides; the one word per arena word is the sidecar's main memory
	// cost, paid page by page only for words written while a snapshot was
	// registered. Mapped outside the Go heap like the arena, and owned by
	// the Store (see package mem).
	written []atomic.Uint64

	shards []shard
	mask   uint64
	budget int

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
		budget: cfg.Budget,
	}
	s.written = unsafe.Slice((*atomic.Uint64)(unsafe.Pointer(unsafe.SliceData(mem.MapWords(s, cfg.Words)))), cfg.Words)
	return s
}

// Budget returns the per-shard version budget.
func (s *Store) Budget() int { return s.budget }

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

// Versions on demand: the contract between the STM's commits and this
// store, and why snapshots stay exact under it.
//
// A commit is versioned when it sees a registered snapshot. It then stamps
// every word it writes (Publish) or allocates (Born) with its timestamp
// and retains the pre-images, all before releasing its locks. Otherwise it
// touches nothing here. The commit decides once, reading ActiveSnapshots
// AFTER it has drawn its timestamp ts from the clock; a snapshot registers
// (Enter) BEFORE it reads the clock for its start S. Every access involved
// is sequentially consistent, so two facts follow:
//
//   - (R) A snapshot still registered when a commit at ts > S decides
//     makes that commit versioned: Enter came before S was read, and S
//     was read before ts was drawn.
//   - (U) A commit that saw no snapshot has ts <= S for every snapshot
//     that registers after its decision, and every snapshot registered
//     before that decision had already left.
//
// By (R), while a snapshot S is registered, each commit that writes a word
// at a timestamp past S stamps it before unlocking it. A written record is
// therefore exact (the word's latest write) or stale: older than a latest
// write that an unversioned commit made at a timestamp t that no
// registered snapshot precedes (U). 0 is just the stalest record. The
// five cases this must carry:
//
//   - An unstamped word (record 0 or stale), read by a snapshot whose
//     stripe an alias moved past S. Read answers ReadLiveValid for any
//     record <= S, 0 included. A write of the word past S would have
//     stamped it past S (R), or still holds its lock, which the caller's
//     re-check of the lock word catches; so the live value is the one
//     committed at S. Treating 0 as a miss instead would restart every
//     scan that meets a preloaded word under aliasing writers.
//   - A reborn block. Its words keep their previous life's records, which
//     predate the free and so the rebirth (reclaim hands a block back only
//     after it was freed). An unversioned rebirth at t is <= S for every
//     registered snapshot (U), so the first case applies; a versioned one
//     stamps every word (Born).
//   - Publish's from = min(v.From, w) with w stale. The entry claims its
//     pre-image over [w, t), though it became current only at t, written
//     by an unversioned commit. No snapshot with S in [w, t) can read the
//     entry: one registered at that commit's decision would have made it
//     versioned, and one registered after it has S >= t (U).
//   - Reset and roll-over. Reset keeps the written array (see Reset). A
//     reconfiguration resets without rewinding the clock, so every record
//     stays <= the clock and reads live-valid for every later snapshot
//     (the argument above core's TM.Reconfigure). A clock roll-over
//     rewinds it, so a record can come from an older clock epoch. None of
//     the cases above looks at a record's epoch: a record <= S reads
//     live-valid, sound because every write past S stamps (R); a record
//     > S finds no entry (a versioned write of this epoch would have
//     replaced the record, and Reset emptied the chains) and misses
//     conservatively; a record below t only widens an entry over a span
//     no registered snapshot holds, as in the third case.
//   - The first versioned supersede of a word last written unversioned.
//     Within an epoch its record w is at most t, and t <= v.From (the
//     stripe was released at t), so the entry starts at w and covers every
//     registered snapshot. After a reconfiguration the stripe may be fresh
//     (v.From 0, below t): the entry then starts at 0, which widens it only
//     over [0, t), and every snapshot registered since the move starts at
//     or after t. After a roll-over, a record left from the older
//     epoch may exceed v.From; the entry then starts at v.From, no earlier
//     than t, and a snapshot in [t, v.From) takes a conservative miss and
//     restarts past it. That is the only price, never a wrong value.

// Publish records the pre-images superseded by a versioned commit at
// timestamp ts: it stamps their words' written records with ts and
// retains them. Callers MUST deliver versions while still holding the
// covering write locks (after writing values to memory, before releasing
// the locks at ts): per-stripe publication then follows lock-acquisition
// order, which keeps each address's written record, prev chain and
// `until` sequence monotone, and means a snapshot reader that observes a
// released stripe version newer than its snapshot will always find the
// matching pre-image already retained (or a raised horizon), never a
// publication still in flight.
//
// The caller decides whether its commit is versioned (see above), and
// Publish does not consult the registry again: one decision covers
// stamps, births and retention alike.
//
// Births are not versions: words the commit allocated have no pre-image
// (their prior bits belong to no reachable object), and their commit
// timestamp goes to the written array through Born, under the same
// locks-held rule.
func (s *Store) Publish(ts uint64, vs []Version) {
	if len(vs) == 0 {
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
		mapCap := s.budget * mapCapMult
		if mapCap < mapCapFloor {
			mapCap = mapCapFloor
		}
		for k := i; k < j; k++ {
			v := &vs[k]
			// The written record is the exact validity start of this
			// pre-image, or a stale one that no registered snapshot can
			// tell from it (see above); the stripe version only bounds it.
			from := v.From
			if w := s.written[v.Addr].Load(); w < from {
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

// Born records that the n words from addr were allocated by the versioned
// commit at ts: each word's written record becomes ts. That is the exact
// validity start of the word's first supersede, and it proves to snapshot
// readers that the live value covers any snapshot at or after ts, however
// far aliasing writes have moved the word's stripe. An unversioned commit
// skips it, and its births keep whatever record their words had ("a
// reborn block" above Publish). Like Publish, it must run
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
	budget := s.budget
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
	// ReadMiss: the address's record is past the snapshot, but no
	// retained entry holds the value current at it: the record is left
	// from the clock epoch before a roll-over, the entry's start could
	// not be tightened, or the advisory index dropped the address. On an
	// unlocked stripe this is persistent — publication precedes lock
	// release, so waiting cannot help; behind an in-flight writer the
	// pre-image may still arrive.
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

// Read serves a read of addr by the registered snapshot snap. The
// dominant outcome — the address itself has not been written past snap,
// whatever its stripe version says — is decided by one lock-free atomic
// load of the written record; only reads of addresses genuinely
// overwritten since the snapshot take the shard lock and walk the
// address's chain, newest first. The verdicts hold for registered
// snapshots: a reader at an arbitrary timestamp could precede a write
// that never stamped its word.
func (s *Store) Read(stripe, addr, snap uint64) (val uint64, res ReadResult) {
	if s.written[addr].Load() <= snap {
		// The record is exact or stale and, either way, no write past
		// snap has stamped it; 0 is the stalest record (see above
		// Publish). The live word is the value at snap. The caller
		// re-validates the lock word, which catches a supersede racing
		// this decision.
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
// versioned write or birth, 0 when none was recorded (tests).
func (s *Store) Written(addr uint64) uint64 { return s.written[addr].Load() }

// Horizon returns the trim watermark of the shard covering stripe (tests).
func (s *Store) Horizon(stripe uint64) uint64 {
	sh := &s.shards[stripe&s.mask]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.horizon
}

// Reset drops every retained version and rewinds all horizons. Only
// callable at a global quiescence point (the STM's freeze barrier), where
// no snapshot can be active: a clock roll-over, which rewinds the clock
// and so makes old-epoch version INTERVALS meaningless, and a
// reconfiguration, which keeps the clock but remaps the stripes that pick
// each version's shard.
//
// The written array is deliberately NOT wiped — that would make every
// Reconfigure's stop-the-world pause O(arena words) instead of
// O(shards+budget), and back every page of the mapping. Records
// therefore outlive a Reset. After a reconfiguration each stays <= the
// clock, below every later snapshot's start. After a roll-over a record
// can outlive its epoch, and need not be wiped: a new-epoch write past a
// registered snapshot stamps its word afresh, so an old-epoch record is
// merely stale in the sense above Publish, whose "Reset and roll-over"
// case says why a stale record can cost a conservative miss but never a
// wrong value.
func (s *Store) Reset() {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		sh.entries = sh.entries[:0]
		sh.head = 0
		sh.absBase = 0
		sh.horizon = 0
		clear(sh.newest) // chain positions are gone with the entries
		sh.mu.Unlock()
	}
}

// Package mem provides the word-addressed transactional memory arena that
// both STM implementations operate on.
//
// The paper's TinySTM is a word-based STM over raw process memory: the STM
// hashes machine addresses into a lock array. Go's garbage collector and
// pointer rules make raw-address striping unsafe, so this package supplies
// the closest controlled equivalent: a flat array of 64-bit words in which
// an address (Addr) is a word index. The allocator hands out contiguous
// index ranges, so spatial locality — the property the paper's #shifts
// tuning parameter exploits — behaves exactly as with native pointers, and
// false sharing between neighbouring allocations is preserved.
//
// All word accesses go through sync/atomic: with the write-through design
// transactions write to memory before commit, so plain loads would race.
// The one exception is Alloc zeroing the block it hands out, which no
// other goroutine can reach yet (the STM recycles a block only once no
// running attempt can hold a pointer into it).
//
// The words live outside the Go heap (MapWords: an anonymous mapping on
// unix), as TinySTM's arena lives in raw process memory. On the heap they
// would be one pointer-free allocation the collector never scans yet
// counts as live: its pacing goal would sit at twice the arena, and
// nothing allocated beside it — request scratch, descriptor growth — would
// be collected until the process had allocated that much again. Mapped,
// the goal follows the Go objects alone. The MVCC sidecar maps its
// per-word timestamps the same way.
//
// Lifetime: a mapping belongs to an owner (the *Space for the arena, the
// *mvcc.Store for the sidecar) and is unmapped by a runtime.AddCleanup on
// it once the owner is unreachable. Every access goes through a reachable
// owner — a transaction reaches the arena as tx.tm.space, the sidecar as
// tm.mvcc — so a mapping outlives every reader, and no slice of the words
// may escape its owner.
//
// The race detector ignores memory outside the Go heap: it neither checks
// accesses to these words nor tracks happens-before through the atomics on
// them. Nothing may rely on it doing so — an ordering between goroutines
// that matters must also run through synchronization on the heap, as the
// STM's lock words do.
package mem

import (
	"fmt"
	"os"
	"sync/atomic"
)

// Addr is a word address inside a Space: the index of a 64-bit word.
// Addr 0 is reserved as the nil address; the allocator never returns it.
type Addr uint64

// Nil is the reserved null address.
const Nil Addr = 0

// LineWords is the number of words in a cache line. Alloc returns a block
// whose size is a multiple of LineWords on a line boundary, so a block of
// one line is one line of the hardware and, at #shifts 0, its words map
// to adjacent lock words.
const LineWords = 8

// pageWords is the number of words in a page of the host: Free hands the
// whole pages of a block at least this long back to the kernel.
var pageWords = uint64(os.Getpagesize() / 8)

// Space is a flat, fixed-capacity arena of 64-bit words. Word reads and
// writes are individually atomic; transactional consistency across words is
// the STM's job, not the Space's.
type Space struct {
	words []uint64
	alloc allocator
}

// NewSpace returns a Space holding capacity words. The first word is
// reserved so that Addr 0 can serve as nil. It panics if capacity < 2.
func NewSpace(capacity int) *Space {
	if capacity < 2 {
		panic("mem: space capacity must be at least 2 words")
	}
	s := &Space{}
	s.words = MapWords(s, capacity)
	s.alloc.init(1, uint64(capacity)) // word 0 reserved
	return s
}

// Cap returns the total capacity in words, including the reserved word.
func (s *Space) Cap() int { return len(s.words) }

// Load atomically reads the word at a.
func (s *Space) Load(a Addr) uint64 {
	return atomic.LoadUint64(&s.words[a])
}

// Store atomically writes the word at a.
func (s *Space) Store(a Addr, v uint64) {
	atomic.StoreUint64(&s.words[a], v)
}

// CompareAndSwap atomically replaces the word at a if it equals old.
func (s *Space) CompareAndSwap(a Addr, old, new uint64) bool {
	return atomic.CompareAndSwapUint64(&s.words[a], old, new)
}

// Alloc reserves n contiguous words and returns the address of the first,
// on a line boundary when n is a multiple of LineWords. The words are
// zeroed. It returns Nil if the space is exhausted.
func (s *Space) Alloc(n int) Addr {
	if n <= 0 {
		panic(fmt.Sprintf("mem: Alloc(%d): size must be positive", n))
	}
	a := s.alloc.take(uint64(n))
	if a == 0 {
		return Nil
	}
	// A plain clear: one memclr instead of an atomic store a word, which
	// for a directory of thousands of lines was most of its allocation.
	clear(s.words[a : a+uint64(n)])
	return Addr(a)
}

// Free returns the n-word block at a to the allocator. Freeing Nil is a
// no-op. The caller must pass the same n used at Alloc time. A block of at
// least a page gives the pages it covers whole back to the kernel first
// (on linux; elsewhere they stay resident), so a superseded directory
// does not stay in the process's resident set until a block of its size
// is asked for again; the next Alloc of the block zeroes it like any
// other.
func (s *Space) Free(a Addr, n int) {
	if a == Nil {
		return
	}
	if n <= 0 {
		panic(fmt.Sprintf("mem: Free(%d, %d): size must be positive", a, n))
	}
	if uint64(a)+uint64(n) > uint64(len(s.words)) {
		panic(fmt.Sprintf("mem: Free(%d, %d): out of range", a, n))
	}
	if uint64(n) >= pageWords {
		// Before the block is free: once given back, another Alloc may
		// own it.
		lo := (uint64(a) + pageWords - 1) &^ (pageWords - 1)
		if hi := (uint64(a) + uint64(n)) &^ (pageWords - 1); lo < hi {
			releaseWords(s.words[lo:hi])
		}
	}
	s.alloc.give(uint64(a), uint64(n))
}

// LiveWords reports the number of words currently allocated (excluding the
// reserved word): leak accounting in tests, the server's memory gauges.
func (s *Space) LiveWords() uint64 { return s.alloc.live() }

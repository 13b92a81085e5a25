package core

import (
	"math/bits"

	"tinystm/internal/mem"
)

// addrSet is a descriptor's scratch set of word addresses, emptied in
// O(1): every slot carries the generation that filled it, and reset just
// starts a new generation. A Go map would have to be cleared, which
// costs its capacity — the capacity of the largest commit the descriptor
// ever ran, paid again by every small one after it. Open addressing with
// linear probing; the table is kept at most half full.
type addrSet struct {
	slots []addrSlot
	shift uint // 64 - log2(len(slots))
	gen   uint32
	n     int
}

type addrSlot struct {
	addr mem.Addr
	gen  uint32
}

// reset empties the set.
func (s *addrSet) reset() {
	s.n = 0
	s.gen++
	if s.gen == 0 {
		// The stamps wrapped: a slot filled 2^32 generations ago would
		// read as current.
		clear(s.slots)
		s.gen = 1
	}
}

// add inserts a, reporting whether it was absent.
func (s *addrSet) add(a mem.Addr) bool {
	if 2*(s.n+1) > len(s.slots) {
		s.grow()
	}
	mask := uint64(len(s.slots) - 1)
	for i := (uint64(a) * 0x9e3779b97f4a7c15) >> s.shift; ; i = (i + 1) & mask {
		sl := &s.slots[i]
		if sl.gen != s.gen {
			*sl = addrSlot{addr: a, gen: s.gen}
			s.n++
			return true
		}
		if sl.addr == a {
			return false
		}
	}
}

// grow doubles the table and re-inserts the current generation.
func (s *addrSet) grow() {
	old := s.slots
	size := max(16, 2*len(old))
	s.slots = make([]addrSlot, size)
	s.shift = uint(64 - bits.TrailingZeros(uint(size)))
	if s.gen == 0 {
		s.gen = 1 // zeroed slots must not read as filled
	}
	s.n = 0
	for _, sl := range old {
		if sl.gen == s.gen {
			s.add(sl.addr)
		}
	}
}

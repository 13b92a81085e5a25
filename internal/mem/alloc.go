package mem

import "sync"

// allocator is a simple size-class free-list allocator over a word range.
//
// Blocks are allocated by bumping a frontier pointer; freed blocks are
// pushed onto a per-size free list and reused verbatim. There is no
// coalescing: transactional workloads in this repository allocate a small
// set of fixed node sizes (list nodes, tree nodes, reservation records),
// for which segregated free lists are both fast and fragmentation-free.
// Size classes larger than maxSizeClass share one list searched linearly;
// only directories (a kvstore shard's bucket lines) are that large.
//
// A block whose size is a multiple of LineWords starts on a line boundary:
// the frontier is rounded up to one before it is carved (the skipped words
// become a free block of their own size), and a size class holds blocks of
// one size only, so a reused block is aligned because its first owner's
// was.
type allocator struct {
	mu       sync.Mutex
	next     uint64 // bump frontier
	limit    uint64 // one past the last usable word
	free     [maxSizeClass + 1][]uint64
	big      []bigBlock // rarely used overflow list
	liveWrds uint64
}

const maxSizeClass = 64

type bigBlock struct {
	addr uint64
	size uint64
}

func (al *allocator) init(start, limit uint64) {
	al.next = start
	al.limit = limit
}

// take reserves n contiguous words, returning 0 when exhausted.
func (al *allocator) take(n uint64) uint64 {
	al.mu.Lock()
	defer al.mu.Unlock()
	if n <= maxSizeClass {
		if l := al.free[n]; len(l) > 0 {
			a := l[len(l)-1]
			al.free[n] = l[:len(l)-1]
			al.liveWrds += n
			return a
		}
	} else {
		for i, b := range al.big {
			if b.size == n {
				al.big[i] = al.big[len(al.big)-1]
				al.big = al.big[:len(al.big)-1]
				al.liveWrds += n
				return b.addr
			}
		}
	}
	a := al.next
	var gap uint64
	if n%LineWords == 0 {
		gap = -a & (LineWords - 1)
	}
	if a+gap+n > al.limit {
		return 0
	}
	if gap > 0 {
		al.free[gap] = append(al.free[gap], a)
		a += gap
	}
	al.next = a + n
	al.liveWrds += n
	return a
}

func (al *allocator) give(a, n uint64) {
	al.mu.Lock()
	defer al.mu.Unlock()
	if n <= maxSizeClass {
		al.free[n] = append(al.free[n], a)
	} else {
		al.big = append(al.big, bigBlock{addr: a, size: n})
	}
	al.liveWrds -= n
}

func (al *allocator) live() uint64 {
	al.mu.Lock()
	defer al.mu.Unlock()
	return al.liveWrds
}

package mem

import (
	"fmt"
	"runtime"
	"sync/atomic"
)

// mappedBytes is what MapWords currently holds for reachable owners. It
// falls back when an owner's cleanup has run (tests).
var mappedBytes atomic.Int64

// MapWords returns n zeroed, 8-byte-aligned words outside the Go heap (on
// unix; elsewhere from make) and ties their lifetime to owner: they are
// given back some time after owner becomes unreachable. The words are
// valid only while owner is, so every access must go through a reachable
// owner and no slice of them may be kept anywhere owner is not. It panics
// if n is not positive, or if the system cannot map n words, as make would
// fail on a heap that cannot grow.
func MapWords[T any](owner *T, n int) []uint64 {
	if n <= 0 {
		panic(fmt.Sprintf("mem: MapWords(%d): size must be positive", n))
	}
	words, unmap := mapWords(n)
	size := int64(n) * 8
	mappedBytes.Add(size)
	runtime.AddCleanup(owner, func(unmap func()) {
		unmap()
		mappedBytes.Add(-size)
	}, unmap)
	return words
}

//go:build !unix

package mem

// mapWords takes the words from the Go heap where there is no mmap: the
// collector then counts them as live heap.
func mapWords(n int) (words []uint64, unmap func()) { return make([]uint64, n), func() {} }

//go:build !linux

package mem

// releaseWords keeps the pages resident where the syscall package offers
// no madvise.
func releaseWords([]uint64) {}

//go:build unix

package mem

import (
	"fmt"
	"syscall"
	"unsafe"
)

// mapWords maps n words of anonymous private memory: zero pages the kernel
// backs on first touch, which the collector neither scans nor counts.
func mapWords(n int) (words []uint64, unmap func()) {
	b, err := syscall.Mmap(-1, 0, n*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic(fmt.Sprintf("mem: mapping %d words: %v", n, err))
	}
	// Munmap of a mapping made here fails only on a bug, and a cleanup has
	// nobody to report to.
	return unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), n), func() { _ = syscall.Munmap(b) }
}

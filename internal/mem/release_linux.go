package mem

import (
	"syscall"
	"unsafe"
)

// releaseWords hands the pages of w, which must be whole pages of a
// mapping made by mapWords, back to the kernel: they stop counting as
// resident and read as zero when next touched.
func releaseWords(w []uint64) {
	// An advice on a range of our own private mapping fails only on a bug,
	// and the pages staying resident is then the only cost.
	_ = syscall.Madvise(unsafe.Slice((*byte)(unsafe.Pointer(&w[0])), len(w)*8), syscall.MADV_DONTNEED)
}

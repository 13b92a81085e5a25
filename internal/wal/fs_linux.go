package wal

import (
	"os"
	"syscall"
)

// reservedFile is an *os.File that can reserve its blocks: Truncate comes
// with the embedded file, Reserve is fallocate(2) in its default mode,
// which allocates the range and extends the file size over it.
type reservedFile struct{ *os.File }

func osFile(f *os.File) File { return reservedFile{f} }

func (f reservedFile) Reserve(size int64) error {
	for {
		err := syscall.Fallocate(int(f.Fd()), 0, 0, size)
		if err != syscall.EINTR {
			return err
		}
	}
}
